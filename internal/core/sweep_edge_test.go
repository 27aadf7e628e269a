package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/xmltree"
)

// Edge cases of the pair-worker window sweep: the per-worker chunk
// arithmetic must stay correct when the window swallows the whole
// table, when there is nothing (or only one row) to sweep, and when
// runs of identical sort keys straddle worker-chunk and batch
// boundaries.

// sweepCombos is the worker × cache grid the edge tests exercise; 16
// workers over a handful of rows forces empty and single-pair chunks.
func sweepCombos() []Options {
	var combos []Options
	for _, w := range pairWorkerMatrix {
		for _, cache := range []bool{false, true} {
			combos = append(combos, Options{PairWorkers: w, SimCache: cache})
		}
	}
	return combos
}

func comboName(o Options) string {
	return fmt.Sprintf("workers=%d/cache=%v", o.PairWorkers, o.SimCache)
}

// Window ≥ table size degenerates to all-pairs: every combo must
// perform exactly C(n,2) comparisons and agree on the clusters.
func TestSweepWindowExceedsTable(t *testing.T) {
	const n, window = 8, 50
	doc := uniqueKeyDoc(t, n)
	cfg := mustValidate(t, singleKeyConfig(window))
	allPairs := n * (n - 1) / 2
	var baseline string
	for _, opts := range sweepCombos() {
		res, err := Run(doc, cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", comboName(opts), err)
		}
		if got := res.Stats.Candidates["movie"].Comparisons; got != allPairs {
			t.Errorf("%s: comparisons = %d, want all-pairs %d", comboName(opts), got, allPairs)
		}
		cs := res.Clusters["movie"].String()
		if baseline == "" {
			baseline = cs
		} else if cs != baseline {
			t.Errorf("%s: clusters diverged from first combo", comboName(opts))
		}
	}
}

// Single-row and empty tables have no pairs at all; the sweeper must
// not deadlock, panic, or invent comparisons.
func TestSweepDegenerateTables(t *testing.T) {
	cases := []struct {
		name string
		rows int
	}{{"single-row", 1}, {"two-rows", 2}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := uniqueKeyDoc(t, tc.rows)
			cfg := mustValidate(t, singleKeyConfig(5))
			for _, opts := range sweepCombos() {
				res, err := Run(doc, cfg, opts)
				if err != nil {
					t.Fatalf("%s: %v", comboName(opts), err)
				}
				want := windowPairCount(tc.rows, 5)
				if got := res.Stats.Candidates["movie"].Comparisons; got != want {
					t.Errorf("%s: comparisons = %d, want %d", comboName(opts), got, want)
				}
			}
		})
	}
}

func TestSweepEmptyTable(t *testing.T) {
	doc := mustDoc(t, "<movie_database><movies></movies></movie_database>")
	cfg := mustValidate(t, singleKeyConfig(5))
	for _, opts := range sweepCombos() {
		res, err := Run(doc, cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", comboName(opts), err)
		}
		if got := res.Stats.Candidates["movie"].Comparisons; got != 0 {
			t.Errorf("%s: comparisons = %d on an empty table", comboName(opts), got)
		}
	}
}

// duplicateKeyDoc builds a corpus whose sort keys form two long runs
// of identical values (hundreds of rows each, well past pairBatchSize
// chunk fractions), so equal-key neighbors straddle every worker-chunk
// boundary. sort.SliceStable plus the EID tiebreak must keep the pair
// stream — and therefore the verdict merge — identical regardless of
// how a batch is chunked.
func duplicateKeyDoc(t *testing.T, perGroup int) *xmltree.Document {
	t.Helper()
	var b strings.Builder
	b.WriteString("<movie_database><movies>")
	for g, title := range []string{"BRRRKKKAAAA", "ZLLLTTTAAAA"} {
		for i := 0; i < perGroup; i++ {
			// A distinct year keeps rows distinguishable without
			// touching the (title-derived) sort key.
			fmt.Fprintf(&b, "<movie><title>%s</title><year>%d</year></movie>", title, 1900+g*200+i%100)
		}
	}
	b.WriteString("</movies></movie_database>")
	return mustDoc(t, b.String())
}

func TestSweepDuplicateKeysAcrossChunks(t *testing.T) {
	doc := duplicateKeyDoc(t, 300)
	cfg := singleKeyConfig(6)
	cfg.Candidates[0].Paths = append(cfg.Candidates[0].Paths,
		config.PathDef{ID: 2, RelPath: "year/text()"})
	cfg.Candidates[0].OD = []config.ODEntry{
		{PathID: 1, Relevance: 0.7},
		{PathID: 2, Relevance: 0.3},
	}
	cfg.Candidates[0].Threshold = 0.9
	cfg = mustValidate(t, cfg)
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline := snapshotRun(t, kg, cfg, Options{})
	for _, opts := range sweepCombos() {
		if opts.PairWorkers == 0 && !opts.SimCache {
			continue
		}
		diffSnapshots(t, comboName(opts), baseline, snapshotRun(t, kg, cfg, opts))
	}
}
