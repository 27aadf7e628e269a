package sxnm

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/eval"
)

// Integration invariants over the full pipeline at moderate scale.

func dirtyMovies(t *testing.T, n int, seed int64) *Document {
	t.Helper()
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func runDS1(t *testing.T, doc *Document, window int, opts Options) *Result {
	t.Helper()
	det, err := NewWithOptions(config.DataSet1(window), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeterministicRuns(t *testing.T) {
	doc := dirtyMovies(t, 200, 17)
	a := runDS1(t, doc, 6, Options{})
	b := runDS1(t, doc, 6, Options{})
	if a.Clusters["movie"].String() != b.Clusters["movie"].String() {
		t.Error("same input produced different clusters")
	}
	if a.Stats.Comparisons != b.Stats.Comparisons {
		t.Errorf("comparison counts differ: %d vs %d", a.Stats.Comparisons, b.Stats.Comparisons)
	}
}

// Recall is monotone in the window size: a larger window compares a
// superset of pairs, and transitive closure only merges further.
func TestRecallMonotoneInWindow(t *testing.T) {
	doc := dirtyMovies(t, 300, 23)
	gold, err := eval.BuildGold(doc, dataset.MoviePath)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, w := range []int{2, 4, 8, 16, 32} {
		res := runDS1(t, doc, w, Options{})
		m := eval.PairwiseMetrics(gold, res.Clusters["movie"])
		if m.Recall < prev-1e-9 {
			t.Errorf("recall dropped from %.4f to %.4f at window %d", prev, m.Recall, w)
		}
		prev = m.Recall
	}
}

// Multi-pass detections are a superset of every single pass.
func TestMultiPassSupersetOfSinglePass(t *testing.T) {
	doc := dirtyMovies(t, 250, 29)
	mp := runDS1(t, doc, 6, Options{})
	mpPairs := map[Pair]bool{}
	for _, p := range mp.Clusters["movie"].DuplicatePairs() {
		mpPairs[p] = true
	}
	// Compare the raw detected pairs before closure? The closure can
	// only add pairs, so subset on closed pairs is still implied for
	// each pass alone.
	for key := 0; key < 3; key++ {
		cfg := config.DataSet1(6)
		cfg.KeepKeys("movie", key)
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Run(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Clusters["movie"].DuplicatePairs() {
			if !mpPairs[p] {
				t.Errorf("key %d pair %v missing from multi-pass closure", key+1, p)
			}
		}
	}
}

// Deduplicating the output and re-running finds (nearly) nothing: the
// pipeline is idempotent on its own fixed point.
func TestDeduplicateIdempotent(t *testing.T) {
	doc := dirtyMovies(t, 250, 31)
	res := runDS1(t, doc, 12, Options{})
	before := len(res.Clusters["movie"].NonSingletons())
	if before == 0 {
		t.Fatal("no duplicates found in dirty data")
	}
	clean := Deduplicate(doc, res)
	res2 := runDS1(t, clean, 12, Options{})
	after := len(res2.Clusters["movie"].NonSingletons())
	if after > before/10 {
		t.Errorf("second pass still finds %d groups (first pass %d)", after, before)
	}
}

// The filter and pair-worker options never change detection outcomes.
func TestOptionEquivalenceOnRealData(t *testing.T) {
	doc := dirtyMovies(t, 300, 37)
	base := runDS1(t, doc, 8, Options{})
	for name, opts := range map[string]Options{
		"filter":  {UseFilter: true},
		"workers": {PairWorkers: 4},
		"both":    {UseFilter: true, PairWorkers: 4},
	} {
		got := runDS1(t, doc, 8, opts)
		if got.Clusters["movie"].String() != base.Clusters["movie"].String() {
			t.Errorf("%s: clusters differ from baseline", name)
		}
	}
}

// Gold identities survive the whole pipeline: every cluster the
// detector builds on clean (undirtied) data is a singleton.
func TestCleanDataYieldsNoDuplicates(t *testing.T) {
	det, err := New(config.DataSet1(8))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseXMLString(cleanMoviesXML(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Clusters["movie"].NonSingletons()); got != 0 {
		t.Errorf("clean data produced %d duplicate groups:\n%s", got, res.Clusters["movie"])
	}
}

func cleanMoviesXML(t *testing.T) string {
	t.Helper()
	// A handful of hand-picked distinct movies.
	return `<movie_database><movies>
	  <movie year="1999" length="136"><title>Silent River</title></movie>
	  <movie year="1984" length="120"><title>Golden Harbor</title></movie>
	  <movie year="2001" length="95"><title>Broken Thunder</title></movie>
	  <movie year="1975" length="140"><title>Crimson Voyage</title></movie>
	</movies></movie_database>`
}
