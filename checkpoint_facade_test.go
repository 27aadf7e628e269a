package sxnm

// Facade-level checkpoint tests: interrupted checkpointed runs resume
// to results byte-identical to an uninterrupted run, finished
// checkpoints make reruns free, and Resume is strict about missing,
// mismatched, and corrupt state.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/dataset"
)

// checkpointCorpus returns a nested CD configuration and the XML bytes
// of a generated corpus for it.
func checkpointCorpus(t *testing.T) (*Config, []byte) {
	t.Helper()
	cfg := config.DataSet3(5)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg, []byte(dataset.DataSet3(120, 7).String())
}

// runBytes is the uncheckpointed reference run over data.
func runBytes(t *testing.T, det *Detector, data []byte) *Result {
	t.Helper()
	res, err := det.RunReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func clustersEqual(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("cluster set count %d, want %d", len(got.Clusters), len(want.Clusters))
	}
	for name, cs := range want.Clusters {
		if g := got.Clusters[name]; g == nil || g.String() != cs.String() {
			t.Errorf("candidate %q: clusters diverge from reference", name)
		}
	}
}

func TestRunCheckpointedResumesInterruptedRun(t *testing.T) {
	cfg, data := checkpointCorpus(t)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := runBytes(t, ref, data)

	dir := t.TempDir()
	limited, err := NewWithOptions(cfg, Options{Limits: Limits{MaxComparisons: full.Stats.Comparisons / 3, CheckEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	part, runErr := limited.RunCheckpointed(bytes.NewReader(data), dir)
	if !errors.Is(runErr, ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v", runErr)
	}
	if part == nil || part.Incomplete == nil {
		t.Fatal("interrupted run must return a partial result")
	}

	// The same detector without limits resumes to the full result.
	res, err := ref.RunCheckpointed(bytes.NewReader(data), dir)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	clustersEqual(t, res, full)
	if res.Stats.Comparisons >= full.Stats.Comparisons {
		t.Errorf("resumed run redid all %d comparisons (full run: %d); checkpoint state unused",
			res.Stats.Comparisons, full.Stats.Comparisons)
	}

	// Rerunning a finished checkpoint is free: everything resumes.
	again, err := ref.RunCheckpointed(bytes.NewReader(data), dir)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	clustersEqual(t, again, full)
	if again.Stats.Comparisons != 0 {
		t.Errorf("rerun of a finished checkpoint performed %d comparisons, want 0", again.Stats.Comparisons)
	}
}

// TestSpillCheckpointedLeavesNoRuns checks that a pinned SpillDir
// holds no run file after an interrupted checkpointed run, nor after
// the run that resumes it, and that the resumed clusters are exact.
func TestSpillCheckpointedLeavesNoRuns(t *testing.T) {
	cfg, data := checkpointCorpus(t)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := runBytes(t, ref, data)

	ckpt, spill := t.TempDir(), t.TempDir()
	noRuns := func(when string) {
		t.Helper()
		if left, _ := filepath.Glob(filepath.Join(spill, "*.run")); len(left) > 0 {
			t.Errorf("%s: %d run file(s) left in the spill dir: %v", when, len(left), left)
		}
	}
	opts := Options{SpillThresholdRows: 16, SpillDir: spill}
	limitedOpts := opts
	limitedOpts.Limits = Limits{MaxComparisons: full.Stats.Comparisons / 3, CheckEvery: 1}
	limited, err := NewWithOptions(cfg, limitedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := limited.RunCheckpointed(bytes.NewReader(data), ckpt); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v", err)
	}
	noRuns("interrupted run")

	ob := NewObserver()
	opts.Observer = ob
	det, err := NewWithOptions(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.RunCheckpointed(bytes.NewReader(data), ckpt)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if ob.Metrics().Snapshot().SpillRuns == 0 {
		t.Fatal("the resumed run did not spill; the check would be vacuous")
	}
	noRuns("resumed run")
	clustersEqual(t, res, full)
}

func TestResumeIsStrict(t *testing.T) {
	cfg, data := checkpointCorpus(t)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := det.Resume(bytes.NewReader(data), t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("empty dir: want ErrNoCheckpoint, got %v", err)
	}

	dir := t.TempDir()
	if _, err := det.RunCheckpointed(bytes.NewReader(data), dir); err != nil {
		t.Fatal(err)
	}

	// A different window is a different config fingerprint.
	otherCfg := config.DataSet3(9)
	other, err := New(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = other.Resume(bytes.NewReader(data), dir)
	var me *CheckpointMismatchError
	if !errors.As(err, &me) || me.Field != "config" {
		t.Errorf("config mismatch: got %v", err)
	}
	if _, err := other.RunCheckpointed(bytes.NewReader(data), dir); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("RunCheckpointed must also refuse a mismatched checkpoint, got %v", err)
	}

	// A different document is a different document fingerprint.
	otherDoc := dataset.DataSet3(120, 8).String()
	if _, err := det.Resume(strings.NewReader(otherDoc), dir); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("document mismatch: got %v", err)
	}

	// Corruption: Resume refuses, RunCheckpointed restarts clean.
	if err := os.WriteFile(filepath.Join(dir, "manifest.tsv"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Resume(bytes.NewReader(data), dir); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("corrupt manifest: want ErrCheckpointCorrupt, got %v", err)
	}
	res, err := det.RunCheckpointedContext(context.Background(), bytes.NewReader(data), dir)
	if err != nil {
		t.Fatalf("clean restart over corrupt checkpoint: %v", err)
	}
	clustersEqual(t, res, runBytes(t, det, data))
}

// dirFiles reads every file of dir, by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestRunCheckpointedRefusesVersion1 plants a format v1 checkpoint of
// the same config and document, whose manifest named a gk section:
// the run refuses it as a mismatch and leaves every file as it was.
func TestRunCheckpointedRefusesVersion1(t *testing.T) {
	cfg, data := checkpointCorpus(t)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	dir := t.TempDir()
	gk := "#gk\tdisc\trows=0\n"
	gkSum := sha256.Sum256([]byte(gk))
	body := "#sxnm-checkpoint\tv1\nseq\t1\nconfig\t" + cfgFP + "\ndocument\t" + docFP +
		"\nphase\tdetection\ngk\ts00001-gk.tsv\t" + hex.EncodeToString(gkSum[:]) + "\n"
	sum := sha256.Sum256([]byte(body))
	if err := os.WriteFile(filepath.Join(dir, "s00001-gk.tsv"), []byte(gk), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.tsv"),
		[]byte(body+"#checksum\t"+hex.EncodeToString(sum[:])+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)

	_, err = det.RunCheckpointed(bytes.NewReader(data), dir)
	var me *CheckpointMismatchError
	if !errors.Is(err, ErrCheckpointMismatch) || !errors.As(err, &me) || me.Field != "format-version" {
		t.Fatalf("v1 checkpoint: want a format-version ErrCheckpointMismatch, got %v", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("refused v1 checkpoint was modified: files %v, were %v", len(after), len(before))
	}
}

// TestInterruptedScanLeavesNoCheckpoint cuts the scan short by a
// timeout and by a node ceiling: the run returns the partial Result
// and the typed cause without creating a manifest.
func TestInterruptedScanLeavesNoCheckpoint(t *testing.T) {
	cfg, data := checkpointCorpus(t)
	for name, lim := range map[string]Limits{
		"timeout":   {Timeout: time.Nanosecond, CheckEvery: 1},
		"max-nodes": {MaxNodes: 50},
	} {
		det, err := NewWithOptions(cfg, Options{Limits: lim})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		res, err := det.RunCheckpointed(bytes.NewReader(data), dir)
		if !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrLimitExceeded) {
			t.Errorf("%s: want an interruption, got %v", name, err)
		}
		if res == nil || res.Incomplete == nil || res.Incomplete.Phase != "key-generation" {
			t.Errorf("%s: want a partial result cut short in key generation, got %+v", name, res)
		}
		if files := dirFiles(t, dir); len(files) != 0 {
			t.Errorf("%s: interrupted scan left %d files in the checkpoint directory", name, len(files))
		}
	}
}
