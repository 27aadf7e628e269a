package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/xmltree"
)

// windowPairCount is the closed form for the number of window pairs a
// single pass produces over n rows with window w:
// sum_{i=1}^{n-1} min(i, w-1).
func windowPairCount(n, w int) int {
	total := 0
	for i := 1; i < n; i++ {
		k := w - 1
		if i < k {
			k = i
		}
		total += k
	}
	return total
}

// uniqueKeyDoc builds n movies with pairwise-distinct titles so all
// generated keys differ and no pair repeats across passes.
func uniqueKeyDoc(t testing.TB, n int) *xmltree.Document {
	t.Helper()
	var b strings.Builder
	b.WriteString("<movie_database><movies>")
	for i := 0; i < n; i++ {
		// Distinct consonant prefixes: Bxxx, Cxxx, ... via base-20
		// consonant encoding of i.
		fmt.Fprintf(&b, "<movie><title>%s</title></movie>", consonantName(i))
	}
	b.WriteString("</movies></movie_database>")
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// consonantName encodes i as a distinct consonant string.
func consonantName(i int) string {
	const alphabet = "BCDFGHJKLMNPQRSTVWXZ"
	name := make([]byte, 0, 6)
	for {
		name = append(name, alphabet[i%len(alphabet)])
		i /= len(alphabet)
		if i == 0 {
			break
		}
	}
	return string(name) + "AAAA" // padding vowels do not affect K keys
}

func singleKeyConfig(w int) *config.Config {
	return &config.Config{Candidates: []config.Candidate{{
		Name:  "movie",
		XPath: "movie_database/movies/movie",
		Paths: []config.PathDef{{ID: 1, RelPath: "title/text()"}},
		OD:    []config.ODEntry{{PathID: 1, Relevance: 1}},
		Keys: []config.KeyDef{
			{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "K1-K6"}}},
		},
		Threshold: 0.99,
		Window:    w,
	}}}
}

// Property: with distinct keys and a single pass, the engine performs
// exactly the closed-form number of comparisons.
func TestWindowPairCountFormula(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw%40) + 2
		w := int(wRaw%10) + 2
		doc := uniqueKeyDoc(t, n)
		cfg := singleKeyConfig(w)
		if err := cfg.Validate(); err != nil {
			return false
		}
		res, err := Run(doc, cfg, Options{})
		if err != nil {
			return false
		}
		st := res.Stats.Candidates["movie"]
		return st.Comparisons == windowPairCount(n, w) &&
			st.WindowPairs == windowPairCount(n, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// With k identical key definitions, window pairs multiply by k but
// distinct comparisons stay the same (cross-pass dedup).
func TestMultiPassDedup(t *testing.T) {
	doc := uniqueKeyDoc(t, 30)
	cfg := singleKeyConfig(4)
	cfg.Candidates[0].Keys = append(cfg.Candidates[0].Keys,
		config.KeyDef{Name: "same", Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "K1-K6"}}},
		config.KeyDef{Name: "same2", Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "K1-K6"}}},
	)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.Candidates["movie"]
	want := windowPairCount(30, 4)
	if st.Comparisons != want {
		t.Errorf("comparisons = %d, want %d (deduped across passes)", st.Comparisons, want)
	}
	if st.WindowPairs != 3*want {
		t.Errorf("window pairs = %d, want %d", st.WindowPairs, 3*want)
	}
}

// TestPairWorkerCountResolution pins how Options.PairWorkers resolves:
// a negative count (the CLI default) follows GOMAXPROCS but falls back
// to the inline path on one CPU, where a pool has nothing to run in
// parallel; explicit counts, 1 included, are taken as given.
func TestPairWorkerCountResolution(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, workers, want int }{
		{1, -1, 0},
		{1, 0, 0},
		{1, 1, 1},
		{1, 4, 4},
		{2, -1, 2},
		{4, -1, 4},
		{4, 0, 0},
		{4, 1, 1},
	} {
		runtime.GOMAXPROCS(tc.procs)
		o := Options{PairWorkers: tc.workers}
		if got := o.pairWorkerCount(); got != tc.want {
			t.Errorf("GOMAXPROCS=%d PairWorkers=%d: resolved %d workers, want %d",
				tc.procs, tc.workers, got, tc.want)
		}
	}
}
