package checkpoint

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/runlimit"
	"repro/internal/xmltree"
)

// The test corpus: nested movie/person candidates with duplicates at
// both levels, two movie keys (multi-pass), so checkpoints cover the
// bottom-up order, pass progress, and descendant cluster reuse.
const corpusXML = `
<movie_database>
  <movies>
    <movie year="1999"><title>The Matrix</title><people><person>Keanu Reeves</person><person>Carrie-Anne Moss</person></people></movie>
    <movie year="1999"><title>Matrix, The</title><people><person>Keanu Reves</person><person>Carrie-Anne Moss</person></people></movie>
    <movie year="1998"><title>Mask of Zorro</title><people><person>Antonio Banderas</person></people></movie>
    <movie year="1999"><title>The Matrrix</title><people><person>Keanu Reeves</person></people></movie>
    <movie year="1998"><title>The Mask of Zorro</title><people><person>Antonio Bandera</person></people></movie>
    <movie year="1972"><title>The Godfather</title><people><person>Marlon Brando</person><person>Al Pacino</person></people></movie>
    <movie year="1972"><title>Godfather, The</title><people><person>Marlon Brando</person><person>Al Pacinno</person></people></movie>
    <movie year="1994"><title>Leon</title><people><person>Jean Reno</person></people></movie>
  </movies>
</movie_database>`

func corpusConfig(t *testing.T) *config.Config {
	t.Helper()
	cfg := &config.Config{
		Candidates: []config.Candidate{
			{
				Name:  "movie",
				XPath: "movie_database/movies/movie",
				Paths: []config.PathDef{
					{ID: 1, RelPath: "title/text()"},
					{ID: 2, RelPath: "@year"},
				},
				OD: []config.ODEntry{
					{PathID: 1, Relevance: 0.8},
					{PathID: 2, Relevance: 0.2, SimFunc: "year"},
				},
				Keys: []config.KeyDef{
					{Name: "title", Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "K1-K5"}}},
					{Name: "year", Parts: []config.KeyPart{
						{PathID: 2, Order: 1, Pattern: "D3,D4"},
						{PathID: 1, Order: 2, Pattern: "K1,K2"},
					}},
				},
				Rule:          config.RuleEither,
				ODThreshold:   0.7,
				DescThreshold: 0.4,
				Window:        4,
			},
			{
				Name:      "person",
				XPath:     "movie_database/movies/movie/people/person",
				Paths:     []config.PathDef{{ID: 1, RelPath: "text()"}},
				OD:        []config.ODEntry{{PathID: 1, Relevance: 1}},
				Keys:      []config.KeyDef{{Name: "name", Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "C1-C6"}}}},
				Threshold: 0.85,
				Window:    4,
			},
		},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func corpusDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(corpusXML)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func fingerprints(t *testing.T, cfg *config.Config, doc *xmltree.Document) (string, string) {
	t.Helper()
	cfgFP, err := ConfigFingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docFP, err := DocumentFingerprint(doc)
	if err != nil {
		t.Fatal(err)
	}
	return cfgFP, docFP
}

// clustersString canonically renders cluster sets for byte-identity
// comparisons across runs.
func clustersString(m map[string]*cluster.ClusterSet) string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "== %s ==\n%s", name, m[name].String())
	}
	return b.String()
}

// referenceClusters runs the corpus uninterrupted, without any
// checkpointing, and returns the canonical cluster rendering.
func referenceClusters(t *testing.T) string {
	t.Helper()
	res, err := core.Run(corpusDoc(t), corpusConfig(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("reference run: %d cluster sets", len(res.Clusters))
	}
	dups := 0
	for _, cs := range res.Clusters {
		dups += len(cs.NonSingletons())
	}
	if dups == 0 {
		t.Fatal("reference run found no duplicates; corpus is too easy")
	}
	return clustersString(res.Clusters)
}

// scanCorpus is the reader path's one pass over the corpus: it builds
// the GK tables from the tokens and fingerprints the document.
func scanCorpus(cfg *config.Config) (*core.KeyGenResult, string, error) {
	sc := xmltree.NewScanner(strings.NewReader(corpusXML), runlimit.Limits{})
	fp := FingerprintTokens(sc)
	kg, err := core.GenerateKeysScan(context.Background(), sc, cfg, core.Limits{}, nil)
	if err != nil {
		return nil, "", err
	}
	return kg, fp.Sum(), nil
}

// runCheckpointed performs one fresh checkpointed run over the corpus
// through the given FS, as the facade would: scan, create the
// checkpoint bound to the scan's fingerprint, detect, finish.
func runCheckpointed(fsys FS, dir string, cfg *config.Config, cfgFP string, lim core.Limits) (*core.Result, error) {
	kg, docFP, err := scanCorpus(cfg)
	if err != nil {
		return nil, err
	}
	d, err := Create(fsys, dir, cfgFP, docFP)
	if err != nil {
		return nil, err
	}
	res, err := core.DetectContext(context.Background(), kg, cfg, core.Options{Limits: lim, Checkpointer: d})
	if err != nil {
		return res, err
	}
	return res, d.Finish()
}

// resumeRun scans the corpus again, loads the checkpoint in dir and
// continues it to completion, falling back to a clean restart when
// nothing valid survives — the recovery policy the facade implements.
func resumeRun(t *testing.T, fsys FS, dir string, cfg *config.Config, cfgFP string) *core.Result {
	t.Helper()
	kg, docFP, err := scanCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, st, err := Load(fsys, dir, cfg, cfgFP, docFP)
	switch {
	case err == nil:
	case errors.Is(err, ErrNoCheckpoint), errors.Is(err, ErrCorrupt):
		res, rerr := runCheckpointed(fsys, dir, cfg, cfgFP, core.Limits{})
		if rerr != nil {
			t.Fatalf("clean restart after %v: %v", err, rerr)
		}
		return res
	default:
		t.Fatalf("load: %v", err)
	}
	res, err := core.DetectContext(context.Background(), kg, cfg,
		core.Options{Checkpointer: d, Resume: st.ResumeState()})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return res
}

func TestCheckpointedRunMatchesPlainRun(t *testing.T) {
	cfg, doc := corpusConfig(t), corpusDoc(t)
	cfgFP, docFP := fingerprints(t, cfg, doc)
	dir := t.TempDir()
	res, err := runCheckpointed(OSFS(), dir, cfg, cfgFP, core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clustersString(res.Clusters), referenceClusters(t); got != want {
		t.Errorf("checkpointed clusters differ:\n%s\nwant:\n%s", got, want)
	}
	// The finished checkpoint reloads as a complete, resumable state.
	_, st, err := Load(OSFS(), dir, cfg, cfgFP, docFP)
	if err != nil {
		t.Fatalf("load finished checkpoint: %v", err)
	}
	if st.Phase != PhaseDone {
		t.Errorf("phase = %q, want %q", st.Phase, PhaseDone)
	}
	if got := clustersString(st.Clusters); got != referenceClusters(t) {
		t.Errorf("recovered clusters differ:\n%s", got)
	}
	if len(st.Progress) != 0 {
		t.Errorf("finished checkpoint still has progress sections: %v", st.Progress)
	}
}

// TestResumeAfterEveryInterruption interrupts the run at every
// possible comparison count and resumes each time, asserting the
// recovered clusters are byte-identical to an uninterrupted run —
// the acceptance invariant for graceful (non-crash) interruptions.
func TestResumeAfterEveryInterruption(t *testing.T) {
	cfg, doc := corpusConfig(t), corpusDoc(t)
	cfgFP, docFP := fingerprints(t, cfg, doc)
	want := referenceClusters(t)

	full, err := core.Run(doc, cfg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := full.Stats.Comparisons
	if total < 10 {
		t.Fatalf("corpus yields only %d comparisons; too few interruption points", total)
	}
	resumedWithProgress := 0
	// A cap of total comparisons never trips, so sweep strictly below.
	for cap := 1; cap < total; cap++ {
		dir := t.TempDir()
		lim := core.Limits{MaxComparisons: cap, CheckEvery: 1}
		res, err := runCheckpointed(OSFS(), dir, cfg, cfgFP, lim)
		if err == nil {
			t.Fatalf("cap %d: run unexpectedly completed", cap)
		}
		if !errors.Is(err, core.ErrLimitExceeded) {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if res == nil || res.Incomplete == nil {
			t.Fatalf("cap %d: no partial result", cap)
		}
		_, st, lerr := Load(OSFS(), dir, cfg, cfgFP, docFP)
		if lerr != nil {
			t.Fatalf("cap %d: load: %v", cap, lerr)
		}
		if len(st.Progress) > 0 {
			resumedWithProgress++
		}
		resumed := resumeRun(t, OSFS(), dir, cfg, cfgFP)
		if got := clustersString(resumed.Clusters); got != want {
			t.Errorf("cap %d: resumed clusters differ:\n%s\nwant:\n%s", cap, got, want)
		}
	}
	if resumedWithProgress == 0 {
		t.Error("no interruption left mid-candidate pass progress; resume path untested")
	}
}

func TestLoadRejectsMismatchedFingerprints(t *testing.T) {
	cfg, doc := corpusConfig(t), corpusDoc(t)
	cfgFP, docFP := fingerprints(t, cfg, doc)
	dir := t.TempDir()
	if _, err := runCheckpointed(OSFS(), dir, cfg, cfgFP, core.Limits{}); err != nil {
		t.Fatal(err)
	}

	otherCfg := corpusConfig(t)
	otherCfg.Candidates[0].Window = 9
	otherFP, err := ConfigFingerprint(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if otherFP == cfgFP {
		t.Fatal("window change did not alter the config fingerprint")
	}
	_, _, lerr := Load(OSFS(), dir, otherCfg, otherFP, docFP)
	var me *MismatchError
	if !errors.As(lerr, &me) || me.Field != "config" {
		t.Errorf("config mismatch: got %v", lerr)
	}
	if !errors.Is(lerr, ErrMismatch) {
		t.Errorf("mismatch error does not match ErrMismatch: %v", lerr)
	}

	otherDoc, err := xmltree.ParseString(strings.Replace(corpusXML, "Leon", "Heat", 1))
	if err != nil {
		t.Fatal(err)
	}
	otherDocFP, err := DocumentFingerprint(otherDoc)
	if err != nil {
		t.Fatal(err)
	}
	_, _, lerr = Load(OSFS(), dir, cfg, cfgFP, otherDocFP)
	if !errors.As(lerr, &me) || me.Field != "document" {
		t.Errorf("document mismatch: got %v", lerr)
	}
}

func TestLoadRejectsCorruptBytes(t *testing.T) {
	cfg, doc := corpusConfig(t), corpusDoc(t)
	cfgFP, docFP := fingerprints(t, cfg, doc)

	setup := func(t *testing.T) string {
		dir := t.TempDir()
		if _, err := runCheckpointed(OSFS(), dir, cfg, cfgFP, core.Limits{}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	loadErr := func(dir string) error {
		_, _, err := Load(OSFS(), dir, cfg, cfgFP, docFP)
		return err
	}

	t.Run("missing", func(t *testing.T) {
		if err := loadErr(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("want ErrNoCheckpoint, got %v", err)
		}
	})
	t.Run("torn-manifest", func(t *testing.T) {
		dir := setup(t)
		path := filepath.Join(dir, manifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := loadErr(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("torn manifest: want ErrCorrupt, got %v", err)
		}
	})
	t.Run("flipped-byte-everywhere", func(t *testing.T) {
		dir := setup(t)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			path := filepath.Join(dir, e.Name())
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range []int{0, len(orig) / 2, len(orig) - 1} {
				flipped := append([]byte(nil), orig...)
				flipped[pos] ^= 0x20
				if err := os.WriteFile(path, flipped, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := loadErr(dir); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s byte %d flipped: want ErrCorrupt, got %v", e.Name(), pos, err)
				}
			}
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Restored bytes load cleanly again.
		if err := loadErr(dir); err != nil {
			t.Errorf("restored checkpoint no longer loads: %v", err)
		}
	})
	t.Run("missing-section", func(t *testing.T) {
		dir := setup(t)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		removed := false
		for _, e := range entries {
			if isSectionName(e.Name()) {
				if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
					t.Fatal(err)
				}
				removed = true
				break
			}
		}
		if !removed {
			t.Fatal("no section file found")
		}
		if err := loadErr(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("missing section: want ErrCorrupt, got %v", err)
		}
	})
	t.Run("clean-restart-after-corruption", func(t *testing.T) {
		dir := setup(t)
		path := filepath.Join(dir, manifestName)
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		res := resumeRun(t, OSFS(), dir, cfg, cfgFP)
		if got := clustersString(res.Clusters); got != referenceClusters(t) {
			t.Errorf("clean restart clusters differ:\n%s", got)
		}
	})
}

func TestFieldEscapeRoundTrip(t *testing.T) {
	for _, s := range []string{"", "plain", "tab\tand\nnewline", "100%", "%09", "a%b\rc", "ünïcode"} {
		if got := unescapeField(escapeField(s)); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

// TestTokenFingerprintMatchesDocument hashes documents from their
// tokens and requires DocumentFingerprint of the parsed tree, for a
// generated corpus pretty-printed and compact and for markup the
// serializer rewrites (comments, CDATA, references, empty elements).
func TestTokenFingerprintMatchesDocument(t *testing.T) {
	doc := corpusDoc(t)
	inputs := []string{
		doc.String(),
		`<?xml version="1.0"?><!DOCTYPE r><r a="x&#10;&quot;y"><e></e><f/>t<!--c-->u<![CDATA[<&>]]>` +
			"\r\n<g b='\t'>&lt;&#x263A;</g>  </r>\n",
	}
	var compact strings.Builder
	if err := doc.Write(&compact, xmltree.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, compact.String())
	for i, in := range inputs {
		parsed, err := xmltree.ParseString(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DocumentFingerprint(parsed)
		if err != nil {
			t.Fatal(err)
		}
		sc := xmltree.NewScanner(strings.NewReader(in), runlimit.Limits{})
		fp := FingerprintTokens(sc)
		for {
			if _, err := sc.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if got := fp.Sum(); got != want {
			t.Errorf("input %d: token fingerprint %s, tree %s", i, got, want)
		}
	}
}

// TestLoadRefusesVersion1 hand-writes a format v1 checkpoint, whose
// manifest also named a gk section holding the GK tables, and requires
// Load to refuse it as a format-version mismatch, not as corruption.
func TestLoadRefusesVersion1(t *testing.T) {
	cfg, doc := corpusConfig(t), corpusDoc(t)
	cfgFP, docFP := fingerprints(t, cfg, doc)
	dir := t.TempDir()
	gk := []byte("#gk\tmovie\trows=0\n")
	gkSum := sha256.Sum256(gk)
	body := "#sxnm-checkpoint\tv1\nseq\t1\nconfig\t" + cfgFP + "\ndocument\t" + docFP +
		"\nphase\tdetection\ngk\ts00001-gk.tsv\t" + hex.EncodeToString(gkSum[:]) + "\n"
	sum := sha256.Sum256([]byte(body))
	if err := os.WriteFile(filepath.Join(dir, "s00001-gk.tsv"), gk, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName),
		[]byte(body+"#checksum\t"+hex.EncodeToString(sum[:])+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Load(OSFS(), dir, cfg, cfgFP, docFP)
	var me *MismatchError
	if !errors.As(err, &me) || me.Field != "format-version" || me.Got != "v1" || me.Want != "v2" {
		t.Errorf("v1 manifest: want a format-version *MismatchError (v2 wanted, v1 found), got %v", err)
	}
}
