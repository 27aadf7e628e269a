// Property-based equivalence for the spill path, from outside the
// package (the all-pairs baseline imports core, so this must be an
// external test). Randomized corpora from every generator are run
// through the in-memory and spilled paths and must agree exactly; on
// small corpora with the window opened wider than the table, both must
// also agree with the exhaustive all-pairs baseline — the paper's
// convergence claim doubling as an oracle.
package core_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen/freedb"
	"repro/internal/xmltree"
)

// propCorpus is one randomized (document, config) instance; gen
// rebuilds it from (n, seed) so a failure can be shrunk.
type propCorpus struct {
	kind string
	n    int
	seed int64
	gen  func(n int, seed int64) (*xmltree.Document, *config.Config, error)
}

func (c propCorpus) label() string { return fmt.Sprintf("%s/n=%d/seed=%d", c.kind, c.n, c.seed) }

func propGenerators() map[string]func(n int, seed int64) (*xmltree.Document, *config.Config, error) {
	return map[string]func(n int, seed int64) (*xmltree.Document, *config.Config, error){
		"movies": func(n int, seed int64) (*xmltree.Document, *config.Config, error) {
			doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: n, Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			cfg := config.DataSet1(4)
			return doc, cfg, cfg.Validate()
		},
		"cds": func(n int, seed int64) (*xmltree.Document, *config.Config, error) {
			doc, err := dataset.DataSet2(dataset.CDs2Options{Discs: n, Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			cfg := config.DataSet2(4)
			return doc, cfg, cfg.Validate()
		},
		"freedb": func(n int, seed int64) (*xmltree.Document, *config.Config, error) {
			cfg := propCDConfig()
			return freedb.Generate(freedb.DefaultOptions(n, seed)), cfg, cfg.Validate()
		},
	}
}

// propCDConfig mirrors the package-internal cdConfig: a nested disc
// candidate over three leaf candidates.
func propCDConfig() *config.Config {
	leaf := func(name, xp string) config.Candidate {
		return config.Candidate{
			Name:  name,
			XPath: xp,
			Paths: []config.PathDef{{ID: 1, RelPath: "text()"}},
			OD:    []config.ODEntry{{PathID: 1, Relevance: 1}},
			Keys: []config.KeyDef{
				{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "C1-C6"}}},
			},
			Threshold: 0.9,
			Window:    4,
		}
	}
	return &config.Config{Candidates: []config.Candidate{
		{
			Name:  "disc",
			XPath: "cds/disc",
			Paths: []config.PathDef{
				{ID: 1, RelPath: "artist[1]/text()"},
				{ID: 2, RelPath: "dtitle[1]/text()"},
			},
			OD: []config.ODEntry{
				{PathID: 1, Relevance: 0.5},
				{PathID: 2, Relevance: 0.5},
			},
			Keys: []config.KeyDef{
				{Parts: []config.KeyPart{{PathID: 2, Order: 1, Pattern: "K1-K5"}}},
			},
			Rule:          config.RuleEither,
			ODThreshold:   0.85,
			DescThreshold: 0.5,
			Window:        4,
		},
		leaf("dtitle", "cds/disc/dtitle"),
		leaf("artist", "cds/disc/artist"),
		leaf("track", "cds/disc/tracks/title"),
	}}
}

// propClusters runs detection and flattens the result to a comparable
// candidate → cluster-string map plus a stats line.
func propClusters(t *testing.T, doc *xmltree.Document, cfg *config.Config, opts core.Options) map[string]string {
	t.Helper()
	res, err := core.Run(doc, cfg, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := map[string]string{
		"": fmt.Sprintf("cmp=%d dup=%d", res.Stats.Comparisons, res.Stats.DuplicatePairs),
	}
	for name, cs := range res.Clusters {
		out[name] = cs.String()
	}
	return out
}

// spillDisagrees reports whether the spilled run (opts) and the plain
// in-memory sequential run disagree on a corpus — the property under
// test, factored out so the shrink loop can re-ask it for smaller
// corpora.
func spillDisagrees(t *testing.T, c propCorpus, opts core.Options) (string, bool) {
	t.Helper()
	doc, cfg, err := c.gen(c.n, c.seed)
	if err != nil {
		t.Fatalf("%s: generate: %v", c.label(), err)
	}
	mem := propClusters(t, doc, cfg, core.Options{})
	spl := propClusters(t, doc, cfg, opts)
	for name, want := range mem {
		if spl[name] != want {
			return fmt.Sprintf("candidate %q: in-memory %s, spilled %s", name, want, spl[name]), true
		}
	}
	if len(spl) != len(mem) {
		return fmt.Sprintf("candidate sets differ: %d vs %d", len(mem), len(spl)), true
	}
	return "", false
}

// TestSpillPropertyRandomCorpora is the randomized half of the
// equivalence proof: ~50 (generator, size, seed) corpora, each checked
// with a seed-derived spill threshold and PairWorkers count (inline,
// one batching worker, two workers, one per CPU), so spilled streams
// also feed the pair-worker pool. A failure is shrunk to the smallest
// reproducing size before reporting, so the log always names a minimal
// (kind, n, seed, threshold, workers) repro.
func TestSpillPropertyRandomCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized corpus sweep skipped in -short mode")
	}
	gens := propGenerators()
	var corpora []propCorpus
	for kind := range gens {
		for i := 0; i < 17; i++ {
			corpora = append(corpora, propCorpus{
				kind: kind,
				n:    3 + (i*7+11)%28, // 3..30, scattered
				seed: int64(i*13 + 5), // deterministic, distinct
				gen:  gens[kind],
			})
		}
	}
	if len(corpora) < 50 {
		t.Fatalf("only %d corpora generated", len(corpora))
	}
	for _, c := range corpora {
		opts := core.Options{
			SpillThresholdRows: 1 + int(c.seed)%7,
			PairWorkers:        [...]int{0, 1, 2, -1}[c.seed%4],
		}
		msg, bad := spillDisagrees(t, c, opts)
		if !bad {
			continue
		}
		// Shrink: smallest n of the same kind/seed that still disagrees.
		min := c
		minMsg := msg
		for n := 1; n < c.n; n++ {
			small := c
			small.n = n
			if m, b := spillDisagrees(t, small, opts); b {
				min, minMsg = small, m
				break
			}
		}
		t.Fatalf("spilled path diverged; minimal repro %s threshold=%d workers=%d:\n%s",
			min.label(), opts.SpillThresholdRows, opts.PairWorkers, minMsg)
	}
}

// TestSpillPropertyAllPairsOracle cross-checks both paths against the
// exhaustive baseline on corpora small enough to open the window past
// the table: with w ≥ rows, SNM compares every pair, so all three
// answers must coincide (Sec. 4's convergence claim used as an oracle).
func TestSpillPropertyAllPairsOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.DataSet1(512) // window far beyond any table size
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		ap, err := baseline.AllPairs(doc, cfg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, threshold := range []int{0, 1, 5} {
			res, err := core.Run(doc, cfg, core.Options{SpillThresholdRows: threshold})
			if err != nil {
				t.Fatal(err)
			}
			for name, cs := range ap.Clusters {
				if got := res.Clusters[name].String(); got != cs.String() {
					t.Errorf("seed %d threshold %d candidate %q: SNM %s, all-pairs %s",
						seed, threshold, name, got, cs.String())
				}
			}
		}
	}
}
