package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/dataset"
)

func TestGKRoundTrip(t *testing.T) {
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustValidate(t, dataset.ScalabilityConfig(3))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteGK(&b, kg); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGK(strings.NewReader(b.String()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, kg, back, cfg)
}

func TestGKRoundTripDetectionEquivalence(t *testing.T) {
	doc := mustDoc(t, typoMoviesXML)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteGK(&b, kg); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGK(strings.NewReader(b.String()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Detect(kg, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Detect(back, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name := range direct.Clusters {
		if direct.Clusters[name].String() != loaded.Clusters[name].String() {
			t.Errorf("%s: clusters differ after GK round trip", name)
		}
	}
}

func TestGKEscaping(t *testing.T) {
	// Values containing every structural character must survive.
	nasty := "a\tb|c;d=e,f%g\nh"
	xmlDoc := `<movie_database><movies><movie><title>` +
		"a&#9;b|c;d=e,f%g&#10;h" + `</title></movie></movies></movie_database>`
	doc := mustDoc(t, xmlDoc)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := kg.Tables["movie"].Rows[0].OD[0][0]; got != nasty {
		t.Fatalf("setup: OD value = %q, want %q", got, nasty)
	}
	var b strings.Builder
	if err := WriteGK(&b, kg); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGK(strings.NewReader(b.String()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Tables["movie"].Rows[0].OD[0][0]; got != nasty {
		t.Errorf("round-tripped value = %q, want %q", got, nasty)
	}
}

func TestEscapeGKProperty(t *testing.T) {
	f := func(s string) bool {
		return unescapeGK(escapeGK(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Escaped output never contains structural characters except the
	// escape marker itself.
	g := func(s string) bool {
		return !strings.ContainsAny(escapeGK(s), "\t\n\r|;=,")
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReadGKErrors(t *testing.T) {
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	cases := []struct{ name, in string }{
		{"row before header", "1\tX\tY\t\n"},
		{"unknown candidate", "#gk\tnosuch\tkeys=1\tod=1\n"},
		{"bad header", "#gk\tmovie\n"},
		{"bad counts", "#gk\tmovie\tkeys=x\tod=1\n"},
		{"count mismatch", "#gk\tmovie\tkeys=5\tod=1\n"},
		{"bad eid", "#gk\tmovie\tkeys=1\tod=1\nxx\tK\tV\t\n"},
		{"wrong width", "#gk\tmovie\tkeys=1\tod=1\n1\tK\n"},
		{"bad desc", "#gk\tmovie\tkeys=1\tod=1\n1\tK\tV\tjunk\n"},
		{"bad desc eid", "#gk\tmovie\tkeys=1\tod=1\n1\tK\tV\tperson=zz\n"},
		{"bad rows count", "#gk\tmovie\tkeys=1\tod=1\trows=x\n"},
		{"negative rows count", "#gk\tmovie\tkeys=1\tod=1\trows=-1\n"},
		{"truncated at eof", "#gk\tmovie\tkeys=1\tod=1\trows=2\n1\tK\tV\t\n"},
		{"truncated before next section", "#gk\tmovie\tkeys=1\tod=1\trows=2\n1\tK\tV\t\n#gk\tmovie\tkeys=1\tod=1\trows=0\n"},
		{"extra rows", "#gk\tmovie\tkeys=1\tod=1\trows=1\n1\tK\tV\t\n2\tK\tV\t\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadGK(strings.NewReader(c.in), cfg); err == nil {
				t.Errorf("ReadGK(%q) succeeded", c.in)
			}
		})
	}
}

// TestReadGKErrorDiagnostics pins the diagnostic contract: row-level
// errors name the candidate and the 1-based line, truncation names the
// candidate with both counts.
func TestReadGKErrorDiagnostics(t *testing.T) {
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	cases := []struct {
		name, in string
		want     []string
	}{
		{"truncated section", "#gk\tmovie\tkeys=1\tod=1\trows=3\n1\tK\tV\t\n",
			[]string{`"movie"`, "truncated", "3 rows", "got 1"}},
		{"header count mismatch", "#gk\tmovie\tkeys=5\tod=1\trows=0\n",
			[]string{`"movie"`, "line 1", "5 keys"}},
		{"bad desc encoding", "#gk\tmovie\tkeys=1\tod=1\trows=1\n1\tK\tV\tjunk\n",
			[]string{`"movie"`, "line 2", "desc"}},
		{"bad row width", "#gk\tmovie\tkeys=1\tod=1\trows=1\n1\tK\n",
			[]string{`"movie"`, "line 2", "fields"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadGK(strings.NewReader(c.in), cfg)
			if err == nil {
				t.Fatalf("ReadGK(%q) succeeded", c.in)
			}
			for _, frag := range c.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q does not mention %q", err, frag)
				}
			}
		})
	}
}

// TestReadGKRejectsRepeatedEID: a dump that gives one element ID twice
// within a candidate — in one section or across two — is refused with
// the line of the repeat, instead of loading a table whose pass order
// (key, then EID) is no longer total. The same ID in two different
// candidates is no conflict.
func TestReadGKRejectsRepeatedEID(t *testing.T) {
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	cases := []struct{ name, in, line string }{
		{"same section", "#gk\tmovie\tkeys=1\tod=1\trows=3\n3\tK\tA\t\n4\tK\tB\t\n3\tL\tC\t\n", "line 4"},
		{"second section", "#gk\tmovie\tkeys=1\tod=1\trows=1\n3\tK\tA\t\n#gk\tmovie\tkeys=1\tod=1\trows=1\n3\tL\tC\t\n", "line 4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadGK(strings.NewReader(c.in), cfg)
			if err == nil {
				t.Fatalf("ReadGK accepted a repeated eid: %q", c.in)
			}
			for _, frag := range []string{c.line, `"movie"`, "repeated eid 3"} {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q does not mention %q", err, frag)
				}
			}
		})
	}
	two := "#gk\tmovie\tkeys=1\tod=1\trows=1\n3\tK\tA\t\n#gk\tperson\tkeys=1\tod=1\trows=1\n3\tK\tA\t\n"
	if _, err := ReadGK(strings.NewReader(two), cfg); err != nil {
		t.Errorf("one eid in two candidates rejected: %v", err)
	}
}

// A v1 dump without rows= still loads (forward compatibility with
// pre-rows checkpoints and saved GK files).
func TestReadGKAcceptsHeaderWithoutRows(t *testing.T) {
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	kg, err := ReadGK(strings.NewReader("#gk\tmovie\tkeys=1\tod=1\n1\tK\tV\t\n"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(kg.Tables["movie"].Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(kg.Tables["movie"].Rows))
	}
}
