package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sxnm "repro"
	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/xmltree"
)

const testConfig = `
<sxnm-config>
  <candidate name="movie" xpath="movie_database/movies/movie" window="5" threshold="0.8">
    <path id="1" relPath="title/text()"/>
    <od pid="1" relevance="1"/>
    <key><part pid="1" order="1" pattern="K1-K5"/></key>
  </candidate>
</sxnm-config>`

const testData = `
<movie_database>
  <movies>
    <movie><title>Silent River</title></movie>
    <movie><title>Silnt River</title></movie>
    <movie><title>Broken Storm</title></movie>
  </movies>
</movie_database>`

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "cfg.xml", testConfig)
	data := write(t, dir, "data.xml", testData)
	out := filepath.Join(dir, "clean.xml")
	if err := run([]string{"-config", cfg, "-input", data, "-output", out, "-clusters", "-stats"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	cleaned, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(cleaned) == 0 {
		t.Error("empty output document")
	}
}

func TestRunMissingFlags(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing flags should fail")
	}
	if err := run([]string{"-config", "x.xml"}); err == nil {
		t.Error("missing -input should fail")
	}
}

func TestRunBadFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "cfg.xml", testConfig)
	data := write(t, dir, "data.xml", testData)
	if err := run([]string{"-config", filepath.Join(dir, "absent.xml"), "-input", data}); err == nil {
		t.Error("absent config should fail")
	}
	if err := run([]string{"-config", cfg, "-input", filepath.Join(dir, "absent.xml")}); err == nil {
		t.Error("absent input should fail")
	}
	badCfg := write(t, dir, "bad.xml", "<sxnm-config/>")
	if err := run([]string{"-config", badCfg, "-input", data}); err == nil {
		t.Error("invalid config should fail")
	}
}

// A failed run prints its error with the "sxnm:" prefix exactly once,
// whether the facade (which prefixes its own errors) or the CLI raised
// it, and exits 1.
func TestRunErrorPrefixedOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "cfg.xml", testConfig)
	truncated := write(t, dir, "truncated.xml", testData[:len(testData)/2])
	absent := filepath.Join(dir, "absent.xml")
	for name, args := range map[string][]string{
		"missing input":   {"-config", cfg, "-input", absent},
		"truncated input": {"-config", cfg, "-input", truncated},
		"missing config":  {"-config", absent, "-input", truncated},
		"missing flags":   {"-config", cfg},
	} {
		var stderr bytes.Buffer
		if code := reportErr(&stderr, run(args)); code != 1 {
			t.Errorf("%s: exit status %d, want 1", name, code)
		}
		line := stderr.String()
		if !strings.HasPrefix(line, "sxnm: ") || strings.Count(line, "sxnm:") != 1 {
			t.Errorf("%s: stderr %q, want one \"sxnm:\" prefix", name, line)
		}
	}
}

func TestRunLimitFlags(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "cfg.xml", testConfig)
	data := write(t, dir, "data.xml", testData)

	// Unreachable limits leave the run untouched.
	if err := run([]string{"-config", cfg, "-input", data,
		"-timeout", "1m", "-max-depth", "100", "-max-nodes", "10000", "-max-comparisons", "100000"}); err != nil {
		t.Fatalf("generous limits: %v", err)
	}

	// The document nests movie_database/movies/movie/title: depth 4.
	err := run([]string{"-config", cfg, "-input", data, "-max-depth", "2"})
	var le *sxnm.LimitError
	if !errors.As(err, &le) || le.Limit != "max-depth" {
		t.Errorf("-max-depth 2: want max-depth LimitError, got %v", err)
	}

	err = run([]string{"-config", cfg, "-input", data, "-max-nodes", "3"})
	if !errors.As(err, &le) || le.Limit != "max-nodes" {
		t.Errorf("-max-nodes 3: want max-nodes LimitError, got %v", err)
	}

	// Three movies in a window of five: three comparisons, so a cap of
	// one interrupts the sliding window mid-candidate.
	err = run([]string{"-config", cfg, "-input", data, "-max-comparisons", "1"})
	if !errors.Is(err, sxnm.ErrLimitExceeded) {
		t.Errorf("-max-comparisons 1: want ErrLimitExceeded, got %v", err)
	}
}

func TestRunTimeoutFlag(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "cfg.xml", testConfig)
	data := write(t, dir, "data.xml", testData)
	// An already-expired deadline is noticed at the latest when the
	// first candidate enters transitive closure.
	err := run([]string{"-config", cfg, "-input", data, "-timeout", "1ns"})
	if !errors.Is(err, sxnm.ErrDeadlineExceeded) {
		t.Errorf("-timeout 1ns: want ErrDeadlineExceeded, got %v", err)
	}
}

func TestSnippet(t *testing.T) {
	if got := snippet("short", 10); got != "short" {
		t.Errorf("snippet = %q", got)
	}
	if got := snippet("a very long text that exceeds the limit", 10); got != "a very lon..." {
		t.Errorf("snippet = %q", got)
	}
}

func TestRunExports(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "cfg.xml", testConfig)
	data := write(t, dir, "data.xml", testData)
	csvOut := filepath.Join(dir, "dups.csv")
	xmlOut := filepath.Join(dir, "clusters.xml")
	if err := run([]string{"-config", cfg, "-input", data,
		"-clusters-csv", csvOut, "-clusters-xml", xmlOut}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []string{csvOut, xmlOut} {
		info, err := os.Stat(p)
		if err != nil || info.Size() == 0 {
			t.Errorf("export %s missing or empty: %v", p, err)
		}
	}
}

func TestRunStreamMode(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "cfg.xml", testConfig)
	data := write(t, dir, "data.xml", testData)
	xmlOut := filepath.Join(dir, "clusters.xml")
	if err := run([]string{"-config", cfg, "-input", data, "-stream", "-stats", "-clusters-xml", xmlOut}); err != nil {
		t.Fatalf("stream run: %v", err)
	}
	if info, err := os.Stat(xmlOut); err != nil || info.Size() == 0 {
		t.Error("stream run did not write cluster XML")
	}
	// Incompatible flags are rejected.
	if err := run([]string{"-config", cfg, "-input", data, "-stream", "-clusters"}); err == nil {
		t.Error("-stream with -clusters should fail")
	}
}

func TestRunGKPipeline(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "cfg.xml", testConfig)
	data := write(t, dir, "data.xml", testData)
	gk := filepath.Join(dir, "gk.tsv")
	if err := run([]string{"-config", cfg, "-input", data, "-gk-out", gk}); err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	if info, err := os.Stat(gk); err != nil || info.Size() == 0 {
		t.Fatal("GK dump missing")
	}
	if err := run([]string{"-config", cfg, "-gk-in", gk, "-stats"}); err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	// Incompatible combinations rejected.
	if err := run([]string{"-config", cfg, "-gk-in", gk, "-clusters"}); err == nil {
		t.Error("-gk-in with -clusters should fail")
	}
	if err := run([]string{"-config", cfg}); err == nil {
		t.Error("neither -input nor -gk-in should fail")
	}
}

func TestRunCheckpointFlag(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "cfg.xml", testConfig)
	data := write(t, dir, "data.xml", testData)
	ckpt := filepath.Join(dir, "ckpt")

	// An interrupted checkpointed run exits with the interruption cause
	// and leaves a resumable checkpoint behind.
	err := run([]string{"-config", cfg, "-input", data, "-checkpoint", ckpt, "-max-comparisons", "1"})
	if !errors.Is(err, sxnm.ErrLimitExceeded) {
		t.Fatalf("capped checkpointed run: want ErrLimitExceeded, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(ckpt, "manifest.tsv")); err != nil {
		t.Fatalf("no manifest after interruption: %v", err)
	}

	// The same command without the cap resumes and completes.
	if err := run([]string{"-config", cfg, "-input", data, "-checkpoint", ckpt, "-clusters"}); err != nil {
		t.Fatalf("resume: %v", err)
	}

	// A checkpoint bound to different data is refused.
	other := write(t, dir, "other.xml", strings.Replace(testData, "Broken Storm", "Broken Stone", 1))
	if err := run([]string{"-config", cfg, "-input", other, "-checkpoint", ckpt}); !errors.Is(err, sxnm.ErrCheckpointMismatch) {
		t.Errorf("mismatched input: want ErrCheckpointMismatch, got %v", err)
	}
}

func TestRunCheckpointFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "cfg.xml", testConfig)
	data := write(t, dir, "data.xml", testData)
	args := []string{"-config", cfg, "-gk-in", data, "-checkpoint", dir}
	if err := run(args); err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Errorf("%v: want -checkpoint conflict error, got %v", args, err)
	}
}

// TestRunStreamCheckpointRoundTrip interrupts a -stream -checkpoint
// run and reruns it: the rerun resumes to the clusters of an
// uncheckpointed run, and its report carries the parsed tree's
// DocumentFingerprint, taken from the run's own scan.
func TestRunStreamCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg, data := corpusFiles(t, dir)
	refXML, gotXML := filepath.Join(dir, "ref.xml"), filepath.Join(dir, "got.xml")
	rep, ckpt := filepath.Join(dir, "rep.json"), filepath.Join(dir, "ckpt")
	if err := run([]string{"-config", cfg, "-input", data, "-clusters-xml", refXML}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-config", cfg, "-input", data, "-stream", "-checkpoint", ckpt, "-max-comparisons", "200"})
	if code := reportErr(io.Discard, err); code != 3 {
		t.Fatalf("interrupted -stream -checkpoint run: exit %d (%v), want 3", code, err)
	}
	if err := run([]string{"-config", cfg, "-input", data, "-stream", "-checkpoint", ckpt,
		"-clusters-xml", gotXML, "-report", rep}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got, want := readFile(t, gotXML), readFile(t, refXML); string(got) != string(want) {
		t.Error("resumed -clusters-xml differs from the uncheckpointed run's")
	}
	var r struct {
		DocFingerprint string          `json:"doc_fingerprint"`
		Resume         json.RawMessage `json:"resume"`
	}
	if err := json.Unmarshal(readFile(t, rep), &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Resume) == 0 {
		t.Error("rerun's report carries no resume object; it did not resume")
	}
	doc, err := sxnm.ParseXMLFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := sxnm.DocumentFingerprint(doc); err != nil || r.DocFingerprint != want {
		t.Errorf("doc_fingerprint %q, want %q (%v)", r.DocFingerprint, want, err)
	}
}

// corpusFiles writes a generated CD corpus (four nested candidates)
// and its configuration.
func corpusFiles(t *testing.T, dir string) (cfgPath, dataPath string) {
	t.Helper()
	doc, err := dataset.DataSet2(dataset.CDs2Options{Discs: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfgPath = filepath.Join(dir, "cfg.xml")
	if err := config.DataSet2(4).Document().WriteFile(cfgPath, xmltree.WriteOptions{Indent: "  ", Header: true}); err != nil {
		t.Fatal(err)
	}
	return cfgPath, write(t, dir, "data.xml", doc.String())
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunStreamGKOut writes -gk-out from a -stream run, which has no
// document to run key generation over again, and requires the bytes a
// run over the parsed document writes.
func TestRunStreamGKOut(t *testing.T) {
	dir := t.TempDir()
	cfg, data := corpusFiles(t, dir)
	streamGK, domGK := filepath.Join(dir, "stream.gk"), filepath.Join(dir, "dom.gk")
	if err := run([]string{"-config", cfg, "-input", data, "-stream", "-gk-out", streamGK}); err != nil {
		t.Fatalf("-stream -gk-out: %v", err)
	}
	if err := run([]string{"-config", cfg, "-input", data, "-clusters-csv", filepath.Join(dir, "c.csv"), "-gk-out", domGK}); err != nil {
		t.Fatalf("-gk-out over the document: %v", err)
	}
	got, want := readFile(t, streamGK), readFile(t, domGK)
	if len(want) == 0 || string(got) != string(want) {
		t.Fatalf("-stream -gk-out wrote %d bytes, the document run %d; they differ", len(got), len(want))
	}
}

// TestRunDefaultMatchesDocumentRun compares the default run, which
// builds its rows from tokens, with a run that -clusters-csv forces onto
// the parsed document: the same -clusters-xml bytes, and the same
// report doc_fingerprint as the parsed tree's.
func TestRunDefaultMatchesDocumentRun(t *testing.T) {
	dir := t.TempDir()
	cfg, data := corpusFiles(t, dir)
	tokXML, domXML := filepath.Join(dir, "tok.xml"), filepath.Join(dir, "dom.xml")
	tokRep, domRep := filepath.Join(dir, "tok.json"), filepath.Join(dir, "dom.json")
	if err := run([]string{"-config", cfg, "-input", data, "-clusters-xml", tokXML, "-report", tokRep}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", cfg, "-input", data, "-clusters-xml", domXML, "-report", domRep,
		"-clusters-csv", filepath.Join(dir, "c.csv")}); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, tokXML), readFile(t, domXML); string(got) != string(want) {
		t.Fatal("-clusters-xml of the default run differs from the document run's")
	}
	doc, err := sxnm.ParseXMLFile(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sxnm.DocumentFingerprint(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []string{tokRep, domRep} {
		var r struct {
			DocFingerprint string `json:"doc_fingerprint"`
		}
		if err := json.Unmarshal(readFile(t, rep), &r); err != nil {
			t.Fatal(err)
		}
		if r.DocFingerprint != want {
			t.Errorf("%s: doc_fingerprint %q, want %q", filepath.Base(rep), r.DocFingerprint, want)
		}
	}
}
