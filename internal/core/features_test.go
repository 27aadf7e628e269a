package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/similarity"
)

// Tests for the Sec. 5 extensions: the comparison filter, the adaptive
// window, and per-field decision rules.

func TestFilterPreservesResults(t *testing.T) {
	doc := mustDoc(t, typoMoviesXML)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	plain, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := mustValidate(t, movieConfig(config.RuleCombined))
	filtered, err := Run(doc, cfg2, Options{UseFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Clusters["movie"].String() != filtered.Clusters["movie"].String() {
		t.Errorf("filter changed results:\n%s\nvs\n%s",
			plain.Clusters["movie"], filtered.Clusters["movie"])
	}
	ps := plain.Stats.Candidates["movie"]
	fs := filtered.Stats.Candidates["movie"]
	if fs.Comparisons+fs.FilteredOut != ps.Comparisons {
		t.Errorf("filter accounting: %d compared + %d filtered != %d total",
			fs.Comparisons, fs.FilteredOut, ps.Comparisons)
	}
}

func TestFilterSkipsHopelessPairs(t *testing.T) {
	// Titles of very different lengths: the length bound alone proves
	// non-duplication, so the filter must skip the full comparison.
	xml := `<movie_database><movies>
	  <movie><title>A</title></movie>
	  <movie><title>An Extremely Long And Winding Movie Title Indeed</title></movie>
	</movies></movie_database>`
	doc := mustDoc(t, xml)
	cfg := &config.Config{Candidates: []config.Candidate{{
		Name:  "movie",
		XPath: "movie_database/movies/movie",
		Paths: []config.PathDef{{ID: 1, RelPath: "title/text()"}},
		OD:    []config.ODEntry{{PathID: 1, Relevance: 1}},
		Keys: []config.KeyDef{
			{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "C1-C4"}}},
		},
		Threshold: 0.8,
		Window:    5,
	}}}
	mustValidate(t, cfg)
	res, err := Run(doc, cfg, Options{UseFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.Candidates["movie"]
	if st.FilteredOut != 1 {
		t.Errorf("filtered = %d, want 1", st.FilteredOut)
	}
	if st.Comparisons != 0 {
		t.Errorf("comparisons = %d, want 0", st.Comparisons)
	}
}

func TestFilterDisabledUnderCustomRule(t *testing.T) {
	doc := mustDoc(t, typoMoviesXML)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	// Counted atomically: with PairWorkers set, the rule runs on the
	// sweep's worker goroutines.
	var calls atomic.Int64
	res, err := Run(doc, cfg, Options{
		UseFilter: true,
		// Each candidate has one OD field, so this is the Def. 2
		// aggregate thresholded at 0.8.
		FieldRule: func(_ *config.Candidate, fieldSims []float64, _ float64, _ bool) bool {
			calls.Add(1)
			return fieldSims[0] >= 0.8
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates["movie"].FilteredOut != 0 {
		t.Error("filter must be inert when a custom rule decides")
	}
	if calls.Load() == 0 {
		t.Error("custom rule never called")
	}
}

func TestFieldRule(t *testing.T) {
	// Equational-theory style: duplicate iff the title field alone is
	// nearly identical, ignoring the length attribute entirely.
	xml := `<movie_database><movies>
	  <movie length="90"><title>Silent River</title></movie>
	  <movie length="240"><title>Silent Rivr</title></movie>
	  <movie length="90"><title>Broken Storm</title></movie>
	</movies></movie_database>`
	doc := mustDoc(t, xml)
	cfg := &config.Config{Candidates: []config.Candidate{{
		Name:  "movie",
		XPath: "movie_database/movies/movie",
		Paths: []config.PathDef{
			{ID: 1, RelPath: "title/text()"},
			{ID: 2, RelPath: "@length"},
		},
		OD: []config.ODEntry{
			{PathID: 1, Relevance: 0.5},
			{PathID: 2, Relevance: 0.5, SimFunc: "numeric"},
		},
		Keys: []config.KeyDef{
			{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "K1-K4"}}},
		},
		Threshold: 0.95, // the built-in rule would reject (length differs)
		Window:    5,
	}}}
	mustValidate(t, cfg)
	res, err := Run(doc, cfg, Options{
		FieldRule: func(_ *config.Candidate, fieldSims []float64, _ float64, _ bool) bool {
			return fieldSims[0] >= 0.9 // title similarity only
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dups := res.Clusters["movie"].NonSingletons()
	if len(dups) != 1 || len(dups[0].Members) != 2 {
		t.Fatalf("field rule failed:\n%s", res.Clusters["movie"])
	}
}

func TestFieldRuleAbsentMarker(t *testing.T) {
	xml := `<movie_database><movies>
	  <movie><title>Silent River</title></movie>
	  <movie><title>Silent River</title></movie>
	</movies></movie_database>`
	doc := mustDoc(t, xml)
	cfg := &config.Config{Candidates: []config.Candidate{{
		Name:  "movie",
		XPath: "movie_database/movies/movie",
		Paths: []config.PathDef{
			{ID: 1, RelPath: "title/text()"},
			{ID: 2, RelPath: "@year"}, // missing on both movies
		},
		OD: []config.ODEntry{
			{PathID: 1, Relevance: 0.8},
			{PathID: 2, Relevance: 0.2},
		},
		Keys: []config.KeyDef{
			{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "K1-K4"}}},
		},
		Threshold: 0.8,
		Window:    5,
	}}}
	mustValidate(t, cfg)
	sawAbsent := false
	_, err := Run(doc, cfg, Options{
		FieldRule: func(_ *config.Candidate, fieldSims []float64, _ float64, _ bool) bool {
			if fieldSims[1] == similarity.FieldAbsent {
				sawAbsent = true
			}
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawAbsent {
		t.Error("missing-on-both field should be marked FieldAbsent")
	}
}

func TestAdaptiveWindowExtends(t *testing.T) {
	// Five movies with identical keys but a tiny base window: the
	// adaptive extension must reach back past the fixed bound.
	xml := `<movie_database><movies>
	  <movie><title>Silent River One</title></movie>
	  <movie><title>Silent River Two</title></movie>
	  <movie><title>Silent River Three</title></movie>
	  <movie><title>Silent River Four</title></movie>
	  <movie><title>Silent Raver One</title></movie>
	</movies></movie_database>`
	doc := mustDoc(t, xml)
	base := func(adaptive bool) *config.Config {
		c := config.Candidate{
			Name:  "movie",
			XPath: "movie_database/movies/movie",
			Paths: []config.PathDef{{ID: 1, RelPath: "title/text()"}},
			OD:    []config.ODEntry{{PathID: 1, Relevance: 1}},
			Keys: []config.KeyDef{
				{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "K1-K4"}}},
			},
			Threshold: 0.99, // nothing is a duplicate; we only count comparisons
			Window:    2,
		}
		if adaptive {
			c.AdaptiveKeySim = 0.9
			c.AdaptiveMaxWindow = 10
		}
		return &config.Config{Candidates: []config.Candidate{c}}
	}
	fixed, err := Run(doc, mustValidate(t, base(false)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Run(doc, mustValidate(t, base(true)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fc := fixed.Stats.Candidates["movie"].Comparisons
	ac := adaptive.Stats.Candidates["movie"].Comparisons
	if fc != 4 { // w=2: each row compared with its predecessor
		t.Errorf("fixed comparisons = %d, want 4", fc)
	}
	// All five keys are "SLNT"-class equal, so the adaptive window
	// expands to all pairs: C(5,2) = 10.
	if ac != 10 {
		t.Errorf("adaptive comparisons = %d, want 10", ac)
	}
}

func TestAdaptiveWindowCap(t *testing.T) {
	xml := `<movie_database><movies>
	  <movie><title>Silent River One</title></movie>
	  <movie><title>Silent River Two</title></movie>
	  <movie><title>Silent River Three</title></movie>
	  <movie><title>Silent River Four</title></movie>
	  <movie><title>Silent River Five</title></movie>
	</movies></movie_database>`
	doc := mustDoc(t, xml)
	cfg := &config.Config{Candidates: []config.Candidate{{
		Name:  "movie",
		XPath: "movie_database/movies/movie",
		Paths: []config.PathDef{{ID: 1, RelPath: "title/text()"}},
		OD:    []config.ODEntry{{PathID: 1, Relevance: 1}},
		Keys: []config.KeyDef{
			{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "K1-K4"}}},
		},
		Threshold:         0.99,
		Window:            2,
		AdaptiveKeySim:    0.9,
		AdaptiveMaxWindow: 3, // at most 2 predecessors per row
	}}}
	mustValidate(t, cfg)
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rows 2..5: min(i, maxW-1) predecessors = 1+2+2+2 = 7.
	if got := res.Stats.Candidates["movie"].Comparisons; got != 7 {
		t.Errorf("capped adaptive comparisons = %d, want 7", got)
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	_ = cfg
	bad := movieConfig(config.RuleCombined)
	bad.Candidates[0].AdaptiveKeySim = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("adaptive key sim > 1 should fail")
	}
	bad2 := movieConfig(config.RuleCombined)
	bad2.Candidates[0].AdaptiveMaxWindow = 2 // below window 5
	if err := bad2.Validate(); err == nil {
		t.Error("adaptive max window below window should fail")
	}
}
