package core

import (
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/gen/freedb"
)

// The CD corpus has three leaf candidates (dtitle, artist,
// tracks/title) below disc.
func cdConfig() *config.Config {
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
			Window:        5,
		},
		leafCand("dtitle", "cds/disc/dtitle"),
		leafCand("artist", "cds/disc/artist"),
		leafCand("track", "cds/disc/tracks/title"),
	}}
}

func leafCand(name, xp string) config.Candidate {
	return config.Candidate{
		Name:  name,
		XPath: xp,
		Paths: []config.PathDef{{ID: 1, RelPath: "text()"}},
		OD:    []config.ODEntry{{PathID: 1, Relevance: 1}},
		Keys: []config.KeyDef{
			{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "C1-C6"}}},
		},
		Threshold: 0.9,
		Window:    5,
	}
}

// The leaves form the first round (deepest path, then name) and disc
// the second; the flat order concatenates the rounds.
func TestDetectionOrderGroups(t *testing.T) {
	cfg := mustValidate(t, cdConfig())
	doc := freedb.Generate(freedb.DefaultOptions(50, 3))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := names(DetectionOrder(kg, cfg))
	if want := []string{"track", "artist", "dtitle", "disc"}; !slices.Equal(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// A descendant-axis candidate nested below another candidate must be
// processed first even though its static path depth is shallower —
// the order derives from observed instances, not path syntax.
func TestDetectionOrderDescendantAxis(t *testing.T) {
	xml := `<movie_database><movies>
	  <movie><screenplay><author><person>X</person></author></screenplay></movie>
	</movies></movie_database>`
	doc := mustDoc(t, xml)
	cfg := &config.Config{Candidates: []config.Candidate{
		{
			Name:  "screenplay",
			XPath: "movie_database/movies/movie/screenplay",
			Paths: []config.PathDef{{ID: 1, RelPath: "author/person/text()"}},
			OD:    []config.ODEntry{{PathID: 1, Relevance: 1}},
			Keys: []config.KeyDef{
				{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "C1-C4"}}},
			},
			Threshold: 0.9,
			Window:    3,
		},
		leafCand("person", "//person"),
	}}
	mustValidate(t, cfg)
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := names(DetectionOrder(kg, cfg))
	if want := []string{"person", "screenplay"}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// Self-nesting candidates (a type occurring inside itself) must not
// deadlock the ordering.
func TestDetectionOrderSelfNesting(t *testing.T) {
	doc := mustDoc(t, `<r><s>a<s>b</s></s></r>`)
	cfg := &config.Config{Candidates: []config.Candidate{leafCand("s", "//s")}}
	mustValidate(t, cfg)
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(DetectionOrder(kg, cfg)); !slices.Equal(got, []string{"s"}) {
		t.Fatalf("order = %v", got)
	}
	if _, err := Detect(kg, cfg, Options{}); err != nil {
		t.Fatalf("self-nesting detection failed: %v", err)
	}
}

func names(cs []*config.Candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}
