package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/gen/freedb"
	"repro/internal/obs"
)

// checkReportMatchesStats asserts the acceptance criterion of the
// observability layer: the report assembled from spans must reproduce
// Result.Stats exactly — same comparisons, filter hits, duplicate
// pairs, and window pairs, overall and per candidate.
func checkReportMatchesStats(t *testing.T, rep *obs.Report, res *Result) {
	t.Helper()
	st := res.Stats
	if rep.Totals.Comparisons != int64(st.Comparisons) {
		t.Errorf("report comparisons = %d, stats = %d", rep.Totals.Comparisons, st.Comparisons)
	}
	if rep.Totals.FilteredOut != int64(st.FilteredOut) {
		t.Errorf("report filtered = %d, stats = %d", rep.Totals.FilteredOut, st.FilteredOut)
	}
	if rep.Totals.DuplicatePairs != int64(st.DuplicatePairs) {
		t.Errorf("report dups = %d, stats = %d", rep.Totals.DuplicatePairs, st.DuplicatePairs)
	}
	var wantPairs int64
	for _, cs := range st.Candidates {
		wantPairs += int64(cs.WindowPairs)
	}
	if rep.Totals.WindowPairs != wantPairs {
		t.Errorf("report window pairs = %d, stats sum = %d", rep.Totals.WindowPairs, wantPairs)
	}
	if len(rep.Candidates) != len(st.Candidates) {
		t.Fatalf("report candidates = %d, stats = %d", len(rep.Candidates), len(st.Candidates))
	}
	for _, cr := range rep.Candidates {
		cs := st.Candidates[cr.Name]
		if cs == nil {
			t.Errorf("report candidate %q not in stats", cr.Name)
			continue
		}
		if cr.Rows != cs.Rows || cr.Comparisons != int64(cs.Comparisons) ||
			cr.WindowPairs != int64(cs.WindowPairs) ||
			cr.FilteredOut != int64(cs.FilteredOut) ||
			cr.DuplicatePairs != int64(cs.DuplicatePairs) ||
			cr.Clusters != int64(cs.Clusters) ||
			cr.NonSingleton != int64(cs.NonSingleton) {
			t.Errorf("candidate %q: report %+v vs stats %+v", cr.Name, cr, cs)
		}
		// Pass deltas must sum to the candidate totals.
		var pp, pc int64
		for _, p := range cr.Passes {
			pp += p.WindowPairs
			pc += p.Comparisons
		}
		if pp != cr.WindowPairs || pc != cr.Comparisons {
			t.Errorf("candidate %q: pass sums %d/%d vs totals %d/%d",
				cr.Name, pp, pc, cr.WindowPairs, cr.Comparisons)
		}
	}
}

func runObserved(t *testing.T, opts Options) (*obs.Report, *Result, []obs.Record) {
	t.Helper()
	ring := obs.NewRing(1 << 16)
	col := obs.NewCollector()
	var buf bytes.Buffer
	jl := obs.NewJSONL(&buf)
	ob := obs.New(ring, col, jl)
	opts.Observer = ob
	opts.UseFilter = true

	cfg := mustValidate(t, cdConfig())
	doc := freedb.Generate(freedb.DefaultOptions(60, 4))
	res, err := RunContext(context.Background(), doc, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	return col.Report(ob.Metrics()), res, recs
}

func TestObserverReportMatchesStats(t *testing.T) {
	rep, res, recs := runObserved(t, Options{})
	checkReportMatchesStats(t, rep, res)

	// The trace must contain each phase's span exactly where expected.
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Name]++
	}
	if counts[obs.SpanKeyGen] != 1 || counts[obs.SpanDetect] != 1 {
		t.Errorf("phase spans = %v", counts)
	}
	if counts[obs.SpanCandidate] != len(res.Stats.Candidates) {
		t.Errorf("candidate spans = %d, want %d", counts[obs.SpanCandidate], len(res.Stats.Candidates))
	}
	if counts[obs.SpanSlidingWindow] != len(res.Stats.Candidates) ||
		counts[obs.SpanTransitiveClosure] != len(res.Stats.Candidates) {
		t.Errorf("per-candidate phase spans = %v", counts)
	}
	if counts[obs.SpanPass] == 0 {
		t.Error("no pass spans emitted")
	}
	if rep.DetectWallMS <= 0 || rep.KeyGenMS <= 0 {
		t.Errorf("phase wall times = %v / %v", rep.KeyGenMS, rep.DetectWallMS)
	}
	if res.Stats.DetectionWall <= 0 {
		t.Error("detection wall clock not measured")
	}
}

// The live metrics must agree with the final stats once the run ends:
// every batched delta has been flushed.
func TestObserverMetricsMatchStats(t *testing.T) {
	ring := obs.NewRing(4)
	ob := obs.New(ring)
	cfg := mustValidate(t, cdConfig())
	doc := freedb.Generate(freedb.DefaultOptions(60, 4))
	res, err := Run(doc, cfg, Options{Observer: ob, UseFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	m := ob.Metrics()
	if got := m.Comparisons.Load(); got != int64(res.Stats.Comparisons) {
		t.Errorf("metric comparisons = %d, stats = %d", got, res.Stats.Comparisons)
	}
	if got := m.FilteredOut.Load(); got != int64(res.Stats.FilteredOut) {
		t.Errorf("metric filtered = %d, stats = %d", got, res.Stats.FilteredOut)
	}
	if got := m.DuplicatePairs.Load(); got != int64(res.Stats.DuplicatePairs) {
		t.Errorf("metric dups = %d, stats = %d", got, res.Stats.DuplicatePairs)
	}
	if m.CandidatesDone.Load() != int64(len(res.Stats.Candidates)) {
		t.Errorf("candidates done = %d", m.CandidatesDone.Load())
	}
	if m.ODSimCalls.Load() == 0 {
		t.Error("OD similarity invocations not counted")
	}
	var rows int64
	for _, tbl := range res.Tables {
		rows += int64(len(tbl.Rows))
	}
	if m.GKRows.Load() != rows {
		t.Errorf("gk rows = %d, want %d", m.GKRows.Load(), rows)
	}
	if m.PeakHeap.Load() <= 0 {
		t.Error("heap never sampled")
	}
}

// A disabled observer must behave exactly like a nil one: no spans, no
// metric updates, identical results.
func TestObserverDisabled(t *testing.T) {
	ring := obs.NewRing(8)
	ob := obs.New(ring)
	ob.SetEnabled(false)
	cfg := mustValidate(t, cdConfig())
	doc := freedb.Generate(freedb.DefaultOptions(20, 2))
	res, err := Run(doc, cfg, Options{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Comparisons == 0 {
		t.Fatal("run did no work")
	}
	if got := len(ring.Records()); got != 0 {
		t.Errorf("disabled observer emitted %d records", got)
	}
	if ob.Metrics().Comparisons.Load() != 0 {
		t.Error("disabled observer counted comparisons")
	}
}

func TestEstWindowPairs(t *testing.T) {
	cases := []struct {
		n, w int
		want int64
	}{
		{0, 3, 0},
		{1, 3, 0},
		{5, 1, 0},  // window 1 compares nothing
		{3, 3, 3},  // full triangle: window covers everything
		{5, 3, 7},  // 2*(4) - 1 = 7
		{4, 10, 6}, // window larger than n: triangle
		{10, 2, 9}, // adjacent pairs only
		{100, 5, 4*99 - 4*3/2},
	}
	for _, c := range cases {
		if got := estWindowPairs(c.n, c.w); got != c.want {
			t.Errorf("estWindowPairs(%d, %d) = %d, want %d", c.n, c.w, got, c.want)
		}
	}
	// The estimate must equal the actual fixed-window pair count on a
	// real run (single pass, fixed window, no adaptivity).
	cfg := mustValidate(t, movieConfig(config.RuleEither))
	doc := mustDoc(t, typoMoviesXML)
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, cs := range res.Stats.Candidates {
		var cand *config.Candidate
		for i := range cfg.Candidates {
			if cfg.Candidates[i].Name == name {
				cand = &cfg.Candidates[i]
			}
		}
		want := estWindowPairs(cs.Rows, cand.Window) * int64(len(cand.Keys))
		if int64(cs.WindowPairs) != want {
			t.Errorf("%s: window pairs = %d, estimate = %d", name, cs.WindowPairs, want)
		}
	}
}

// BenchmarkObserverOverhead quantifies the acceptance criterion that a
// run without an observer pays nothing for the instrumentation: the
// nil-observer case must stay within noise (≤2%) of the pre-obs
// baseline, which the "nil" sub-benchmark measures directly since all
// instrumentation collapses to a single pointer test per phase.
// "metrics" runs with counters but no trace sink; "traced" adds a ring.
func BenchmarkObserverOverhead(b *testing.B) {
	cfg := cdConfig()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	doc := freedb.Generate(freedb.DefaultOptions(100, 6))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, mk func() *obs.Observer) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Detect(kg, cfg, Options{UseFilter: true, Observer: mk()}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, func() *obs.Observer { return nil }) })
	b.Run("metrics", func(b *testing.B) { run(b, func() *obs.Observer { return obs.New() }) })
	b.Run("traced", func(b *testing.B) {
		run(b, func() *obs.Observer { return obs.New(obs.NewRing(1 << 14)) })
	})
}
