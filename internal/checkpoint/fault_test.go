package checkpoint_test

// The crash-recovery invariant test: a checkpointed run is killed at
// every single I/O step the checkpoint layer performs — temp-file
// creation, each write (clean and torn), fsync, close, rename,
// directory sync, removal — and recovered in a "fresh process" (a
// plain-OS reload of whatever bytes survived). The recovered clusters
// must be byte-identical to an uninterrupted run every time; a crash
// may cost progress (clean restart) but can never produce wrong
// output. This is the acceptance criterion of the checkpoint design.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/checkpoint/faultfs"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/runlimit"
	"repro/internal/xmltree"
)

// faultCorpus mirrors the in-package test corpus: nested candidates,
// multi-key movie detection, duplicates at both levels.
const faultCorpusXML = `
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

func faultConfig(t *testing.T) *config.Config {
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

// scanFaultCorpus is the reader path's one pass over the corpus: the
// GK tables built from the tokens, and the document fingerprint.
func scanFaultCorpus(t *testing.T, cfg *config.Config) (*core.KeyGenResult, string) {
	t.Helper()
	sc := xmltree.NewScanner(strings.NewReader(faultCorpusXML), runlimit.Limits{})
	fp := checkpoint.FingerprintTokens(sc)
	kg, err := core.GenerateKeysScan(context.Background(), sc, cfg, core.Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return kg, fp.Sum()
}

func TestCrashRecoveryAtEveryStep(t *testing.T) {
	cfg := faultConfig(t)
	doc, err := xmltree.ParseString(faultCorpusXML)
	if err != nil {
		t.Fatal(err)
	}
	cfgFP, err := checkpoint.ConfigFingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := core.Run(doc, cfg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderClusters(ref)

	// One crash-free run under the counting FS learns how many I/O
	// steps a full checkpointed run performs. Each run scans the
	// document first, as the facade does, and binds the checkpoint to
	// that scan's fingerprint.
	run := func(t *testing.T, fsys checkpoint.FS, dir string) (*core.Result, error) {
		kg, docFP := scanFaultCorpus(t, cfg)
		d, err := checkpoint.Create(fsys, dir, cfgFP, docFP)
		if err != nil {
			return nil, err
		}
		res, err := core.DetectContext(context.Background(), kg, cfg,
			core.Options{Checkpointer: d})
		if err != nil {
			return res, err
		}
		return res, d.Finish()
	}
	counter := faultfs.New(checkpoint.OSFS())
	if _, err := run(t, counter, t.TempDir()); err != nil {
		t.Fatalf("crash-free run: %v", err)
	}
	steps := counter.Steps()
	if steps < 20 {
		t.Fatalf("only %d I/O steps; the corpus exercises too little of the checkpoint layer", steps)
	}
	t.Logf("full checkpointed run = %d I/O steps", steps)

	// recover reloads the surviving bytes exactly as a fresh process
	// would (healthy OS filesystem, plain reads, a new scan of the
	// document) and continues to completion — resuming when a valid
	// checkpoint exists, restarting clean otherwise. Returns the
	// clusters plus whether state survived.
	recover := func(t *testing.T, dir string) (string, bool) {
		t.Helper()
		kg, docFP := scanFaultCorpus(t, cfg)
		d, st, err := checkpoint.Load(checkpoint.OSFS(), dir, cfg, cfgFP, docFP)
		switch {
		case err == nil:
		case errors.Is(err, checkpoint.ErrNoCheckpoint), errors.Is(err, checkpoint.ErrCorrupt):
			res, rerr := run(t, checkpoint.OSFS(), dir)
			if rerr != nil {
				t.Fatalf("clean restart after %v: %v", err, rerr)
			}
			return renderClusters(res), false
		default:
			t.Fatalf("load after crash: %v", err)
		}
		resumedState := len(st.Clusters) > 0 || len(st.Progress) > 0
		res, err := core.DetectContext(context.Background(), kg, cfg,
			core.Options{Checkpointer: d, Resume: st.ResumeState()})
		if err != nil {
			t.Fatalf("resume after crash: %v", err)
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("finish after crash: %v", err)
		}
		return renderClusters(res), resumedState
	}

	for _, torn := range []bool{false, true} {
		torn := torn
		name := "clean"
		if torn {
			name = "torn"
		}
		t.Run(name, func(t *testing.T) {
			resumed, restarted, completed := 0, 0, 0
			for at := 1; at <= steps; at++ {
				dir := t.TempDir()
				fsys := faultfs.New(checkpoint.OSFS())
				fsys.CrashAt(at, torn)
				_, runErr := run(t, fsys, dir)
				if !fsys.Crashed() {
					t.Fatalf("crash at step %d never fired (run err: %v)", at, runErr)
				}
				if runErr == nil {
					// The crash hit only post-completion bookkeeping
					// (e.g. cleanup of a superseded section); the run's
					// own result already stood.
					completed++
				}
				got, fromState := recover(t, dir)
				if got != want {
					t.Errorf("%s crash at step %d/%d: recovered clusters differ\ngot:\n%s\nwant:\n%s",
						name, at, steps, got, want)
				}
				if fromState {
					resumed++
				} else {
					restarted++
				}
			}
			t.Logf("%s crashes: %d steps — %d resumed from checkpoint, %d clean restarts, %d finished anyway",
				name, steps, resumed, restarted, completed)
			if resumed == 0 {
				t.Error("no crash point resumed from checkpoint state; the resume path went untested")
			}
			if restarted == 0 {
				t.Error("no crash point forced a clean restart; the fallback path went untested")
			}
		})
	}
}

func renderClusters(res *core.Result) string {
	s := ""
	for _, name := range []string{"movie", "person"} {
		cs := res.Clusters[name]
		if cs == nil {
			return fmt.Sprintf("missing cluster set %q", name)
		}
		s += "== " + name + " ==\n" + cs.String()
	}
	return s
}
