package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/gen/freedb"
	"repro/internal/xmltree"
)

// oracleKeyGen is key generation as it was written before rows were
// built from tokens: candidate instances resolved with
// xpath.Path.SelectDocument (a later candidate wins an element both
// select), a preorder walk that registers each instance with its
// nearest candidate ancestor, and every value read with
// xpath.Path.SelectValues on the instance's subtree (oracleRow). The
// row builder must reproduce it exactly.
func oracleKeyGen(doc *xmltree.Document, cfg *config.Config) map[string][]GKRow {
	owner := map[*xmltree.Node]int{}
	for k := range cfg.Candidates {
		for _, n := range cfg.Candidates[k].AbsPath().SelectDocument(doc) {
			owner[n] = k
		}
	}
	rows := make([][]GKRow, len(cfg.Candidates))
	type open struct{ k, i int }
	var stack []open
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.Kind != xmltree.ElementNode {
			return
		}
		k, ok := owner[n]
		if ok {
			c := &cfg.Candidates[k]
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				pr := &rows[top.k][top.i]
				if pr.Desc == nil {
					pr.Desc = map[string][]int{}
				}
				pr.Desc[c.Name] = append(pr.Desc[c.Name], n.ID)
			}
			rows[k] = append(rows[k], oracleRow(n, c))
			stack = append(stack, open{k, len(rows[k]) - 1})
		}
		for _, ch := range n.Children {
			walk(ch)
		}
		if ok {
			stack = stack[:len(stack)-1]
		}
	}
	walk(doc.Root)
	out := map[string][]GKRow{}
	for k := range cfg.Candidates {
		out[cfg.Candidates[k].Name] = rows[k]
	}
	return out
}

// oracleRow extracts keys and OD values for one candidate instance by
// evaluating every relative path on the instance's subtree.
func oracleRow(n *xmltree.Node, c *config.Candidate) GKRow {
	row := GKRow{EID: n.ID}
	values := make([][]string, len(c.Paths))
	for i := range c.Paths {
		values[i] = c.Paths[i].Path().SelectValues(n)
	}
	valuesOf := func(pid int) []string {
		for i := range c.Paths {
			if c.Paths[i].ID == pid {
				return values[i]
			}
		}
		return nil
	}
	first := func(pid int) string {
		if v := valuesOf(pid); len(v) > 0 {
			return v[0]
		}
		return ""
	}
	keys := c.CompiledKeys()
	row.Keys = make([]string, len(keys))
	for i, k := range keys {
		row.Keys[i] = k.Generate(first)
	}
	row.OD = make([][]string, len(c.OD))
	for i, od := range c.OD {
		row.OD[i] = valuesOf(od.PathID)
	}
	return row
}

// assertRowsMatchOracle requires got's tables to hold exactly the
// oracle's rows, in the oracle's order.
func assertRowsMatchOracle(t *testing.T, label string, want map[string][]GKRow, got *KeyGenResult) {
	t.Helper()
	for name, wrows := range want {
		gt := got.Tables[name]
		if gt == nil {
			t.Fatalf("%s: no table %q", label, name)
		}
		if len(gt.Rows) != len(wrows) {
			t.Fatalf("%s %s: %d rows, oracle %d", label, name, len(gt.Rows), len(wrows))
		}
		for i := range wrows {
			w, g := wrows[i], gt.Rows[i]
			if w.EID != g.EID || !reflect.DeepEqual(w.Keys, g.Keys) || !reflect.DeepEqual(w.OD, g.OD) || !reflect.DeepEqual(w.Desc, g.Desc) {
				t.Fatalf("%s %s row %d:\n got  eid %d keys %q od %q desc %v\n want eid %d keys %q od %q desc %v",
					label, name, i, g.EID, g.Keys, g.OD, g.Desc, w.EID, w.Keys, w.OD, w.Desc)
			}
		}
	}
}

// checkRowsFromTokens runs both key generation drivers over xml and
// compares their tables with the oracle's.
func checkRowsFromTokens(t *testing.T, xml string, cfg *config.Config) {
	t.Helper()
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleKeyGen(doc, cfg)
	dom, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsMatchOracle(t, "tree", want, dom)
	stream, err := GenerateKeysStream(strings.NewReader(xml), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsMatchOracle(t, "tokens", want, stream)
}

// rowsSeedDocs cover what makes token-level extraction differ from a
// tree walk: mixed content, CDATA, entities and character references,
// comments splitting text, whitespace-only text, nested same-name
// matches, and nested candidates.
var rowsSeedDocs = []string{
	`<r><a x="1">t1<b>in</b>t2</a><a x="2"><![CDATA[c<d]]>&amp;e</a><a x="1"/></r>`,
	`<r><a>x<!--c-->y<!--d-->  z</a><a>   </a><a> <b/> </a><a><?pi?>p<![CDATA[ ]]>q</a></r>`,
	`<r><a><a><b>1</b></a><b>2</b><a><b>3</b><a><b>5</b></a></a></a><a><b>4</b></a></r>`,
	`<db><disc id="1"><t>A</t><tracks><track><t>x</t></track><track n="2"><t>y</t></track></tracks></disc><disc><t>B</t><disc id="2"><t>C</t></disc></disc></db>`,
	`<r><a v="&lt;&#65;" w=""><b v="1">&#x42;&gt;</b><b v="2">&quot;</b><b>3</b></a></r>`,
	`<r a="1"><s><a><s><a>q</a></s></a></s><a>w<s>e</s></a></r>`,
}

func TestRowsFromTokensMatchOracle(t *testing.T) {
	cases := []struct {
		name, xml string
		cand      string
		paths     []string
	}{
		{"mixed content", rowsSeedDocs[0], "r/a", []string{"text()", "@x", "b", "b/text()"}},
		{"attr filter", rowsSeedDocs[0], "r/a[@x='1']", []string{"text()", "@x"}},
		{"comments and blanks", rowsSeedDocs[1], "r/a", []string{"text()", "b", "*"}},
		{"nested same name", rowsSeedDocs[2], "//a", []string{"b", "//b", "a/b", "//a/b", "b[1]"}},
		{"nested same name, positional", rowsSeedDocs[2], "r/a", []string{"//b[1]", "a[2]/b", "*/b/text()", "//a[1]/b"}},
		{"nested candidates", rowsSeedDocs[3], "db/disc", []string{"t", "@id", "tracks/track/t", "//t", "tracks/track[@n='2']/t"}},
		{"nested candidates, descendant", rowsSeedDocs[3], "//disc", []string{"t", "//t", "disc/t"}},
		{"references", rowsSeedDocs[4], "r/a", []string{"b/@v", "@v", "@w", "b[3]", "//b/text()"}},
		{"interleaved nesting", rowsSeedDocs[5], "r", []string{"//a", "//s/a", "//a/s", "@a", "*/a"}},
		{"wildcard root", rowsSeedDocs[5], "*/s", []string{"//a/text()", "a"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := &config.Config{Candidates: []config.Candidate{pathsCand("c", c.cand, c.paths)}}
			mustValidate(t, cfg)
			checkRowsFromTokens(t, c.xml, cfg)
		})
	}
}

// TestRowsFromTokensNestedCandidates puts several candidates, nested in
// each other and sharing elements, over one document.
func TestRowsFromTokensNestedCandidates(t *testing.T) {
	cfg := &config.Config{Candidates: []config.Candidate{
		pathsCand("disc", "//disc", []string{"t", "@id"}),
		pathsCand("track", "db/disc/tracks/track", []string{"t", "@n"}),
		pathsCand("title", "//t", []string{"text()"}),
		pathsCand("inner", "db/disc/disc", []string{"t"}),
	}}
	mustValidate(t, cfg)
	checkRowsFromTokens(t, rowsSeedDocs[3], cfg)
}

// TestRowsFromTokensCorpora runs the shipped configurations over
// generated corpora.
func TestRowsFromTokensCorpora(t *testing.T) {
	movies, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 120, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkRowsFromTokens(t, movies.String(), mustValidate(t, config.DataSet1(5)))
	cds := freedb.Generate(freedb.DefaultOptions(60, 4))
	checkRowsFromTokens(t, cds.String(), mustValidate(t, config.DataSet2(4)))
	checkRowsFromTokens(t, dataset.DataSet3(40, 2).String(), mustValidate(t, config.DataSet3(4)))
}

// pathsCand is a candidate reading each of paths once: every path is
// an OD field, and the keys take the first characters of the first
// path and the consonants of the last.
func pathsCand(name, xp string, paths []string) config.Candidate {
	c := config.Candidate{Name: name, XPath: xp, Threshold: 0.8, Window: 3}
	for i, p := range paths {
		c.Paths = append(c.Paths, config.PathDef{ID: i + 1, RelPath: p})
		c.OD = append(c.OD, config.ODEntry{PathID: i + 1, Relevance: 1 / float64(len(paths))})
	}
	c.Keys = []config.KeyDef{
		{Parts: []config.KeyPart{{PathID: 1, Order: 1, Pattern: "C1-C3"}}},
		{Parts: []config.KeyPart{{PathID: len(paths), Order: 1, Pattern: "K1-K2"}, {PathID: 1, Order: 2, Pattern: "D1"}}},
	}
	return c
}

// FuzzRowsFromTokens generates candidate and relative paths of the
// whole xpath subset over the names and attributes of a small document
// and requires both key generation drivers to build the oracle's rows.
func FuzzRowsFromTokens(f *testing.F) {
	for i, d := range rowsSeedDocs {
		f.Add(d, int64(i))
		f.Add(d, int64(100+i))
	}
	f.Fuzz(func(t *testing.T, xml string, seed int64) {
		if len(xml) > 4096 {
			return
		}
		doc, err := xmltree.ParseString(xml)
		if err != nil {
			return
		}
		cfg := randomPathsConfig(doc, rand.New(rand.NewSource(seed)))
		if cfg.Validate() != nil {
			return
		}
		checkRowsFromTokens(t, xml, cfg)
	})
}

// randomPathsConfig draws one to three candidates whose absolute and
// relative paths use doc's element names, attributes and values.
func randomPathsConfig(doc *xmltree.Document, rng *rand.Rand) *config.Config {
	var names []string
	var attrs []xmltree.Attr
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.ElementNode {
			names = append(names, n.Name)
			attrs = append(attrs, n.Attrs...)
		}
		return true
	})
	step := func() string {
		name := "*"
		if rng.Intn(8) > 0 {
			name = names[rng.Intn(len(names))]
		}
		switch r := rng.Intn(10); {
		case r < 2:
			name += fmt.Sprintf("[%d]", 1+rng.Intn(3))
		case r < 4 && len(attrs) > 0:
			a := attrs[rng.Intn(len(attrs))]
			if !strings.Contains(a.Value, "'") {
				name += fmt.Sprintf("[@%s='%s']", a.Name, a.Value)
			}
		}
		return name
	}
	steps := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = step()
		}
		return strings.Join(parts, "/")
	}
	cfg := &config.Config{}
	for k := 0; k < 1+rng.Intn(3); k++ {
		var xp string
		if rng.Intn(5) < 2 {
			xp = "//" + steps(1+rng.Intn(2))
		} else {
			xp = doc.Root.Name
			if rng.Intn(6) == 0 {
				xp = "*"
			}
			if n := rng.Intn(3); n > 0 {
				xp += "/" + steps(n)
			}
		}
		var paths []string
		for i := 0; i < 1+rng.Intn(4); i++ {
			var parts []string
			if n := rng.Intn(4); n > 0 {
				p := steps(n)
				if rng.Intn(3) == 0 {
					p = "//" + p
				}
				parts = append(parts, p)
			}
			switch r := rng.Intn(3); {
			case r == 0 && len(attrs) > 0:
				parts = append(parts, "@"+attrs[rng.Intn(len(attrs))].Name)
			case r == 1 || len(parts) == 0:
				parts = append(parts, "text()")
			}
			paths = append(paths, strings.Join(parts, "/"))
		}
		cfg.Candidates = append(cfg.Candidates, pathsCand(fmt.Sprintf("c%d", k), xp, paths))
	}
	return cfg
}
