package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/xmltree"
)

// Fig. 2(a): the Matrix movie with @ID and @year; Table 1's key
// definitions must yield MT99 and 5MA (Sec. 3.1).
const matrixXML = `
<movie_database>
  <movies>
    <movie ID="5632" year="1999">
      <title>Matrix</title>
      <people>
        <person>Keanu Reeves</person>
        <person>Laurence Fishburne</person>
      </people>
    </movie>
  </movies>
</movie_database>`

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustValidate(t *testing.T, cfg *config.Config) *config.Config {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestGenerateKeysPaperExample(t *testing.T) {
	doc := mustDoc(t, matrixXML)
	cfg := mustValidate(t, config.Table1Movie())
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gk := kg.Tables["movie"]
	if gk == nil || len(gk.Rows) != 1 {
		t.Fatalf("GK_movie rows = %v", gk)
	}
	row := gk.Rows[0]
	if row.Keys[0] != "MT99" {
		t.Errorf("key1 = %q, want MT99", row.Keys[0])
	}
	if row.Keys[1] != "5MA" {
		t.Errorf("key2 = %q, want 5MA", row.Keys[1])
	}
	// OD values: title and @year (Table 1 uses paths 1 and 3).
	if len(row.OD) != 2 || row.OD[0][0] != "Matrix" || row.OD[1][0] != "1999" {
		t.Errorf("OD = %v", row.OD)
	}
	if kg.Duration <= 0 {
		t.Error("key generation duration not measured")
	}
}

func TestGKTableRowLookup(t *testing.T) {
	doc := mustDoc(t, matrixXML)
	cfg := mustValidate(t, config.Table1Movie())
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gk := kg.Tables["movie"]
	eid := gk.Rows[0].EID
	if gk.Row(eid) == nil {
		t.Error("Row lookup by EID failed")
	}
	if gk.Row(-5) != nil {
		t.Error("Row lookup for unknown EID should be nil")
	}
}

// movieConfig builds a two-level movie/person configuration used by
// the bottom-up tests: person is deduplicated first, movie similarity
// may then use person clusters.
func movieConfig(rule config.RuleKind) *config.Config {
	return &config.Config{
		Candidates: []config.Candidate{
			{
				Name:  "movie",
				XPath: "movie_database/movies/movie",
				Paths: []config.PathDef{{ID: 1, RelPath: "title/text()"}},
				OD:    []config.ODEntry{{PathID: 1, Relevance: 1}},
				Keys: []config.KeyDef{
					{Name: "title", Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "K1-K4"}}},
				},
				Rule:          rule,
				Threshold:     0.75,
				ODThreshold:   0.75,
				DescThreshold: 0.3,
				Window:        5,
			},
			{
				Name:  "person",
				XPath: "movie_database/movies/movie/people/person",
				Paths: []config.PathDef{{ID: 1, RelPath: "text()"}},
				OD:    []config.ODEntry{{PathID: 1, Relevance: 1}},
				Keys: []config.KeyDef{
					{Name: "name", Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "C1-C6"}}},
				},
				Threshold: 0.85,
				Window:    5,
			},
		},
	}
}

func TestProcessingOrderBottomUp(t *testing.T) {
	cfg := mustValidate(t, movieConfig(config.RuleEither))
	order := ProcessingOrder(cfg)
	if len(order) != 2 {
		t.Fatalf("order = %d candidates", len(order))
	}
	if order[0].Name != "person" || order[1].Name != "movie" {
		t.Errorf("order = %q then %q, want person then movie", order[0].Name, order[1].Name)
	}
}

func TestSchemaRelations(t *testing.T) {
	cfg := mustValidate(t, movieConfig(config.RuleEither))
	movie, person := cfg.Candidate("movie"), cfg.Candidate("person")
	if p := SchemaParent(cfg, person); p != movie {
		t.Errorf("SchemaParent(person) = %v", p)
	}
	if p := SchemaParent(cfg, movie); p != nil {
		t.Errorf("SchemaParent(movie) = %v, want nil", p)
	}
	ch := SchemaChildren(cfg, movie)
	if len(ch) != 1 || ch[0] != person {
		t.Errorf("SchemaChildren(movie) = %v", ch)
	}
}

func TestDescendantRegistration(t *testing.T) {
	doc := mustDoc(t, matrixXML)
	cfg := mustValidate(t, movieConfig(config.RuleEither))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	movieRow := kg.Tables["movie"].Rows[0]
	if got := len(movieRow.Desc["person"]); got != 2 {
		t.Fatalf("movie registered %d person descendants, want 2", got)
	}
	for _, eid := range movieRow.Desc["person"] {
		if kg.Tables["person"].Row(eid) == nil {
			t.Errorf("descendant EID %d not in person GK table", eid)
		}
	}
}

// Fig. 2(b): two <movie> elements whose titles differ but which share
// two duplicate actors. Under the two-threshold rule, descendant
// cluster overlap alone classifies them as duplicates.
const sharedActorsXML = `
<movie_database>
  <movies>
    <movie>
      <title>Matrix</title>
      <people>
        <person>Keanu Reeves</person>
        <person>Laurence Fishburne</person>
        <person>Don Davis</person>
      </people>
    </movie>
    <movie>
      <title>The Threat of the Machines</title>
      <people>
        <person>Keanu Reeves</person>
        <person>Don Davies</person>
        <person>Hugo Weaving</person>
      </people>
    </movie>
  </movies>
</movie_database>`

func TestBottomUpDetectsViaDescendants(t *testing.T) {
	doc := mustDoc(t, sharedActorsXML)
	cfg := mustValidate(t, movieConfig(config.RuleEither))
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Person clusters: Keanu Reeves x2 one cluster, Don Davis/Davies
	// one cluster, Fishburne and Weaving singletons => 4 clusters of 6.
	persons := res.Clusters["person"]
	if persons.Elements() != 6 {
		t.Fatalf("person elements = %d, want 6", persons.Elements())
	}
	if got := len(persons.NonSingletons()); got != 2 {
		t.Fatalf("person duplicate clusters = %d, want 2 (%s)", got, persons)
	}
	// Movie pair: OD similarity is low (different titles) but the
	// descendant overlap is 2 shared clusters / 4 total = 0.5 >= 0.3.
	movies := res.Clusters["movie"]
	if got := len(movies.NonSingletons()); got != 1 {
		t.Fatalf("movies not merged via descendants: %s", movies)
	}
}

func TestDescendantsDisabledMissesThem(t *testing.T) {
	doc := mustDoc(t, sharedActorsXML)
	cfg := mustValidate(t, movieConfig(config.RuleEither))
	res, err := Run(doc, cfg, Options{DisableDescendants: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Clusters["movie"].NonSingletons()); got != 0 {
		t.Fatalf("OD-only run merged movies with different titles: %s", res.Clusters["movie"])
	}
}

func TestPerCandidateDescendantsFlag(t *testing.T) {
	doc := mustDoc(t, sharedActorsXML)
	cfg := movieConfig(config.RuleEither)
	no := false
	cfg.Candidates[0].UseDescendants = &no
	mustValidate(t, cfg)
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Clusters["movie"].NonSingletons()); got != 0 {
		t.Fatal("UseDescendants=false should disable descendant similarity")
	}
}

const typoMoviesXML = `
<movie_database>
  <movies>
    <movie><title>Mask of Zorro</title><people><person>Antonio Banderas</person></people></movie>
    <movie><title>Msk of Zorro</title><people><person>Antonio Banderas</person></people></movie>
    <movie><title>Twelve Monkeys</title><people><person>Bruce Willis</person></people></movie>
  </movies>
</movie_database>`

func TestCombinedRuleDetectsTypos(t *testing.T) {
	doc := mustDoc(t, typoMoviesXML)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	movies := res.Clusters["movie"]
	dups := movies.NonSingletons()
	if len(dups) != 1 || len(dups[0].Members) != 2 {
		t.Fatalf("movie clusters:\n%s", movies)
	}
	// Twelve Monkeys must remain a singleton.
	if movies.Len() != 2 {
		t.Errorf("cluster count = %d, want 2", movies.Len())
	}
}

func TestStatsAccounting(t *testing.T) {
	doc := mustDoc(t, typoMoviesXML)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Stats.Candidates["movie"]
	if ms.Rows != 3 {
		t.Errorf("rows = %d, want 3", ms.Rows)
	}
	if ms.Comparisons == 0 || ms.Comparisons > 3 {
		t.Errorf("comparisons = %d, want in (0,3]", ms.Comparisons)
	}
	if ms.WindowPairs < ms.Comparisons {
		t.Errorf("window pairs %d < comparisons %d", ms.WindowPairs, ms.Comparisons)
	}
	if ms.DuplicatePairs != 1 {
		t.Errorf("duplicate pairs = %d, want 1", ms.DuplicatePairs)
	}
	if ms.Clusters != 2 || ms.NonSingleton != 1 {
		t.Errorf("clusters = %d/%d, want 2/1", ms.Clusters, ms.NonSingleton)
	}
	total := res.Stats
	if total.Comparisons < ms.Comparisons {
		t.Error("total comparisons below candidate comparisons")
	}
	if total.DuplicateDetection() != total.SlidingWindow+total.TransitiveClosure {
		t.Error("DD != SW + TC")
	}
}

func TestPairObserver(t *testing.T) {
	doc := mustDoc(t, typoMoviesXML)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	var obs []PairObservation
	_, err := Run(doc, cfg, Options{PairObserver: func(p PairObservation) { obs = append(obs, p) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) == 0 {
		t.Fatal("no observations")
	}
	movieDups := 0
	for _, p := range obs {
		if p.A >= p.B {
			t.Errorf("observation pair not ordered: %+v", p)
		}
		if p.ODSim < 0 || p.ODSim > 1 {
			t.Errorf("od sim out of range: %+v", p)
		}
		if p.Duplicate && p.Candidate == "movie" {
			movieDups++
		}
	}
	if movieDups != 1 {
		t.Errorf("observed %d movie duplicate classifications, want 1", movieDups)
	}
}

// Multi-pass: a pair whose first key sorts it far apart is caught by
// the second key (Sec. 2.2's motivation for multiple keys).
func TestMultiPassRecoversBadFirstKey(t *testing.T) {
	// Titles differ in the first word so a title-prefix key separates
	// them; the year key brings them together.
	xml := `
<movie_database>
  <movies>
    <movie year="1984"><title>Amadeus</title></movie>
    <movie year="1999"><title>Matrix</title></movie>
    <movie year="1985"><title>Brazil</title></movie>
    <movie year="1999"><title>Zatrix</title></movie>
    <movie year="1986"><title>Castle</title></movie>
    <movie year="1987"><title>Dune Warriors</title></movie>
    <movie year="1988"><title>Solaris</title></movie>
    <movie year="1989"><title>Tron</title></movie>
    <movie year="1990"><title>Vertigo</title></movie>
  </movies>
</movie_database>`
	mk := func(keys []config.KeyDef) *config.Config {
		return &config.Config{Candidates: []config.Candidate{{
			Name:  "movie",
			XPath: "movie_database/movies/movie",
			Paths: []config.PathDef{
				{ID: 1, RelPath: "title/text()"},
				{ID: 2, RelPath: "@year"},
			},
			OD:        []config.ODEntry{{PathID: 1, Relevance: 1}},
			Keys:      keys,
			Threshold: 0.8,
			Window:    2,
		}}}
	}
	titleKey := config.KeyDef{Name: "title", Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "C1-C6"}}}
	yearKey := config.KeyDef{Name: "year", Parts: []config.KeyPart{{PathID: 2, Order: 1, Pattern: "D1-D4"}, {PathID: 1, Order: 2, Pattern: "C2,C3"}}}

	doc := mustDoc(t, xml)
	single, err := Run(doc, mustValidate(t, mk([]config.KeyDef{titleKey})), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(single.Clusters["movie"].NonSingletons()); got != 0 {
		t.Fatalf("single-pass title key should miss Matrix/Zatrix at window 2, got %d clusters", got)
	}
	multi, err := Run(doc, mustValidate(t, mk([]config.KeyDef{titleKey, yearKey})), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(multi.Clusters["movie"].NonSingletons()); got != 1 {
		t.Fatalf("multi-pass should find Matrix/Zatrix, got %d clusters:\n%s", got, multi.Clusters["movie"])
	}
}

// With a window as large as the table, SXNM degenerates to all-pairs
// comparison; the same duplicates must be found as with any larger
// window.
func TestWindowSaturation(t *testing.T) {
	doc := mustDoc(t, typoMoviesXML)
	cfg := movieConfig(config.RuleCombined)
	cfg.Candidates[0].Window = 50
	cfg.Candidates[1].Window = 50
	mustValidate(t, cfg)
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Stats.Candidates["movie"]
	if ms.Comparisons != 3 { // C(3,2)
		t.Errorf("saturated comparisons = %d, want 3", ms.Comparisons)
	}
	if got := len(res.Clusters["movie"].NonSingletons()); got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
}

func TestRuleBoth(t *testing.T) {
	doc := mustDoc(t, sharedActorsXML)
	cfg := movieConfig(config.RuleBoth)
	cfg.Candidates[0].ODThreshold = 0.2 // lenient OD...
	cfg.Candidates[0].DescThreshold = 0.9
	mustValidate(t, cfg)
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// OD sim of the two titles is below 0.2? "Matrix" vs "The Threat
	// of the Machines" is far apart, so no duplicates either way; the
	// point is that a high desc threshold under RuleBoth blocks the
	// descendant-only match that RuleEither would accept.
	if got := len(res.Clusters["movie"].NonSingletons()); got != 0 {
		t.Fatalf("RuleBoth with desc threshold 0.9 should reject, got %d", got)
	}
}

func TestDetectMissingTable(t *testing.T) {
	for name, cfg := range map[string]*config.Config{
		"movies": movieConfig(config.RuleCombined),
		"cds":    cdConfig(),
	} {
		cfg := mustValidate(t, cfg)
		kg := &KeyGenResult{Tables: map[string]*GKTable{}}
		if _, err := Detect(kg, cfg, Options{}); err == nil {
			t.Errorf("%s: Detect without GK tables should fail", name)
		}
	}
}

func TestEmptyDocument(t *testing.T) {
	doc := mustDoc(t, `<movie_database><movies/></movie_database>`)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters["movie"].Len() != 0 {
		t.Error("no movies expected")
	}
	if res.Stats.Comparisons != 0 {
		t.Error("no comparisons expected")
	}
}

func TestDescendantAxisCandidate(t *testing.T) {
	// Candidates may be addressed with //.
	cfg := &config.Config{Candidates: []config.Candidate{{
		Name:  "person",
		XPath: "//person",
		Paths: []config.PathDef{{ID: 1, RelPath: "text()"}},
		OD:    []config.ODEntry{{PathID: 1, Relevance: 1}},
		Keys: []config.KeyDef{
			{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "C1-C6"}}},
		},
		Threshold: 0.85,
		Window:    4,
	}}}
	mustValidate(t, cfg)
	doc := mustDoc(t, sharedActorsXML)
	res, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters["person"].Elements() != 6 {
		t.Fatalf("person elements = %d, want 6", res.Clusters["person"].Elements())
	}
	if got := len(res.Clusters["person"].NonSingletons()); got != 2 {
		t.Errorf("person duplicate clusters = %d, want 2", got)
	}
}

func TestPackPair(t *testing.T) {
	if packPair(1, 2) != packPair(2, 1) {
		t.Error("packPair must be order-insensitive")
	}
	if packPair(1, 2) == packPair(1, 3) {
		t.Error("packPair must distinguish pairs")
	}
}
