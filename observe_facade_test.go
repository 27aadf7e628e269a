package sxnm

// Facade-level observability tests: an observed run emits a parseable
// trace, a report whose counts match Result.Stats, checkpoint-write
// accounting, and resume provenance distinguishing recovered work.

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func observedDetector(t *testing.T, opts Options) (*Detector, []byte, *Collector, *TraceRing, *TraceJSONL, *bytes.Buffer) {
	t.Helper()
	cfg, data := checkpointCorpus(t)
	ring := NewTraceRing(1 << 14)
	col := NewCollector()
	var trace bytes.Buffer
	jl := NewTraceJSONL(&trace)
	opts.Observer = NewObserver(ring, col, jl)
	det, err := NewWithOptions(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return det, data, col, ring, jl, &trace
}

func TestFacadeObservedRun(t *testing.T) {
	det, data, col, _, jl, trace := observedDetector(t, Options{UseFilter: true})
	res, err := det.RunReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	m := det.opts.Observer.Metrics()
	rep := col.Report(m)
	if rep.Totals.Comparisons != int64(res.Stats.Comparisons) ||
		rep.Totals.FilteredOut != int64(res.Stats.FilteredOut) ||
		rep.Totals.DuplicatePairs != int64(res.Stats.DuplicatePairs) {
		t.Errorf("report totals %+v diverge from stats (%d/%d/%d)", rep.Totals,
			res.Stats.Comparisons, res.Stats.FilteredOut, res.Stats.DuplicatePairs)
	}
	if rep.ParseMS <= 0 {
		t.Error("parse phase not traced through RunReader")
	}

	// The derived rates share the attempted-comparison denominator —
	// Comparisons + FilteredOut, the pairs the sweep enumerated
	// (DESIGN.md §11). Pin both the report's and the metrics
	// snapshot's filter_hit_rate against the same formula over
	// Result.Stats, and comparisons_per_sec against attempted/elapsed.
	if res.Stats.FilteredOut == 0 {
		t.Error("filters-on observed run skipped nothing: Stats.FilteredOut = 0")
	}
	snap := m.Snapshot()
	if attempted := res.Stats.Comparisons + res.Stats.FilteredOut; attempted > 0 {
		want := float64(res.Stats.FilteredOut) / float64(attempted)
		if rep.FilterHitRate != want {
			t.Errorf("report filter_hit_rate = %v, want %v from Stats", rep.FilterHitRate, want)
		}
		if snap.FilterHitRate != want {
			t.Errorf("metrics filter_hit_rate = %v, want %v from Stats", snap.FilterHitRate, want)
		}
	}
	if snap.ElapsedSeconds > 0 {
		if want := float64(snap.Comparisons+snap.FilteredOut) / snap.ElapsedSeconds; snap.ComparisonsPerSec != want {
			t.Errorf("comparisons_per_sec = %v, want attempted/elapsed = %v", snap.ComparisonsPerSec, want)
		}
	}

	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ParseTrace(trace)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	names := map[string]bool{}
	for _, r := range recs {
		names[r.Name] = true
	}
	for _, want := range []string{"parse", "keygen", "detect", "candidate", "pass", "sliding-window", "transitive-closure"} {
		if !names[want] {
			t.Errorf("trace missing %q spans", want)
		}
	}

	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "sxnm_comparisons_total") {
		t.Error("prometheus dump missing counters")
	}
}

func TestFacadeStreamRunTraced(t *testing.T) {
	det, data, col, ring, _, _ := observedDetector(t, Options{})
	if _, err := det.RunReader(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var kgStreamed bool
	for _, r := range ring.Records() {
		if r.Name == "keygen" && r.AttrBool("stream") {
			kgStreamed = true
		}
	}
	if !kgStreamed {
		t.Error("streaming key generation span missing stream=true")
	}
	if rep := col.Report(nil); rep.KeyGenMS <= 0 {
		t.Error("keygen duration not collected from stream run")
	}
}

func TestFacadeCheckpointedRunReportsResume(t *testing.T) {
	cfg, data := checkpointCorpus(t)
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := runBytes(t, plain, data)

	dir := t.TempDir()
	limited, err := NewWithOptions(cfg, Options{Limits: Limits{MaxComparisons: full.Stats.Comparisons / 3, CheckEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := limited.RunCheckpointed(bytes.NewReader(data), dir); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("want interruption, got %v", err)
	}

	// Resume with an observer: the report must show recovered work and
	// checkpoint writes.
	ring := NewTraceRing(1 << 14)
	col := NewCollector()
	ob := NewObserver(ring, col)
	det, err := NewWithOptions(cfg, Options{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.RunCheckpointed(bytes.NewReader(data), dir)
	if err != nil {
		t.Fatal(err)
	}
	clustersEqual(t, res, full)

	m := ob.Metrics()
	rep := col.Report(m)
	if rep.Checkpoint == nil || rep.Checkpoint.Writes == 0 || rep.Checkpoint.Bytes == 0 {
		t.Errorf("checkpoint accounting missing: %+v", rep.Checkpoint)
	}
	if rep.Resume == nil {
		t.Fatal("resumed run's report carries no resume provenance")
	}
	if m.ResumedCandidates.Load() == 0 && m.ResumedPairs.Load() == 0 && len(rep.Resume.NextPass) == 0 {
		t.Errorf("resume provenance empty: %+v", rep.Resume)
	}
	// Totals still match the (partial-work) stats of the resumed run.
	if rep.Totals.Comparisons != int64(res.Stats.Comparisons) {
		t.Errorf("report comparisons %d vs stats %d", rep.Totals.Comparisons, res.Stats.Comparisons)
	}
	// The document fingerprint comes from the run's own scan.
	doc, err := ParseXML(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if want, err := DocumentFingerprint(doc); err != nil || rep.DocFingerprint != want {
		t.Errorf("report doc_fingerprint %q, want the parsed tree's %q (%v)", rep.DocFingerprint, want, err)
	}
}

func TestFingerprintExports(t *testing.T) {
	cfg, data := checkpointCorpus(t)
	cfgFP, err := ConfigFingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseXML(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	docFP, err := DocumentFingerprint(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgFP) != 64 || len(docFP) != 64 || cfgFP == docFP {
		t.Errorf("fingerprints = %q / %q", cfgFP, docFP)
	}
}
