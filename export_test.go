package sxnm

import (
	"bytes"
	"encoding/csv"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/xmltree"
)

func TestWriteClustersCSV(t *testing.T) {
	det := demoDetector(t)
	doc, err := ParseXMLString(demoXML)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteClustersCSV(&b, doc, res); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(records) < 2 {
		t.Fatalf("csv rows = %d", len(records))
	}
	if got := strings.Join(records[0], ","); got != "candidate,cluster,element,text" {
		t.Errorf("header = %q", got)
	}
	// Movie duplicate group: 2 rows; person groups: 4 rows. All rows
	// have 4 columns and a non-empty candidate.
	movieRows := 0
	for _, r := range records[1:] {
		if len(r) != 4 {
			t.Fatalf("row width = %d", len(r))
		}
		if r[0] == "movie" {
			movieRows++
		}
	}
	if movieRows != 2 {
		t.Errorf("movie rows = %d, want 2", movieRows)
	}
}

func TestWriteClustersXML(t *testing.T) {
	det := demoDetector(t)
	doc, err := ParseXMLString(demoXML)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteClustersXML(&b, res); err != nil {
		t.Fatal(err)
	}
	// The written document parses back.
	out, err := ParseXMLString(b.String())
	if err != nil {
		t.Fatalf("clusters document does not parse back: %v", err)
	}
	if out.Root.Name != "sxnm-clusters" {
		t.Fatalf("root = %q", out.Root.Name)
	}
	cands := out.Root.ChildElements("candidate")
	if len(cands) != 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
	// Candidates sorted by name: movie, person.
	if n, _ := cands[0].Attr("name"); n != "movie" {
		t.Errorf("first candidate = %q", n)
	}
	// Every element of the partition appears exactly once.
	movieElems := 0
	dupClusters := 0
	for _, cl := range cands[0].ChildElements("cluster") {
		movieElems += len(cl.ChildElements("element"))
		if v, ok := cl.Attr("duplicates"); ok && v == "true" {
			dupClusters++
		}
	}
	if movieElems != 3 {
		t.Errorf("movie elements = %d, want 3", movieElems)
	}
	if dupClusters != 1 {
		t.Errorf("duplicate clusters = %d, want 1", dupClusters)
	}
}

// clustersTree is the document tree the cluster export used to build
// before serializing it; WriteClustersXML must stream exactly the bytes
// the xmltree serializer writes for it.
func clustersTree(res *Result) *Document {
	root := xmltree.NewElement("sxnm-clusters")
	names := make([]string, 0, len(res.Clusters))
	for name := range res.Clusters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ce := xmltree.NewElement("candidate")
		ce.SetAttr("name", name)
		for _, c := range res.Clusters[name].Clusters {
			cl := xmltree.NewElement("cluster")
			cl.SetAttr("id", strconv.Itoa(c.ID))
			if len(c.Members) > 1 {
				cl.SetAttr("duplicates", "true")
			}
			for _, eid := range c.Members {
				el := xmltree.NewElement("element")
				el.SetAttr("id", strconv.Itoa(eid))
				cl.AppendChild(el)
			}
			ce.AppendChild(cl)
		}
		root.AppendChild(ce)
	}
	return xmltree.NewDocument(root)
}

// TestWriteClustersXMLMatchesTreeSerializer pins the streamed export to
// the serializer's bytes on a real run and on the edge shapes: no
// candidates, a candidate without clusters, and a name that needs
// attribute escaping.
func TestWriteClustersXMLMatchesTreeSerializer(t *testing.T) {
	det := demoDetector(t)
	run, err := det.RunReader(strings.NewReader(demoXML))
	if err != nil {
		t.Fatal(err)
	}
	odd := &Result{Clusters: map[string]*ClusterSet{
		"a&b \"<q>\"\n\t": cluster.FromPairs([]int{-4, 2, 9, 11}, []cluster.Pair{{A: -4, B: 11}}),
		"empty":           cluster.FromPairs(nil, nil),
	}}
	for name, res := range map[string]*Result{
		"demo run":      run,
		"no candidates": {Clusters: map[string]*ClusterSet{}},
		"edge shapes":   odd,
	} {
		var want, got bytes.Buffer
		if err := clustersTree(res).Write(&want, xmltree.WriteOptions{Indent: "  ", Header: true}); err != nil {
			t.Fatal(err)
		}
		if err := WriteClustersXML(&got, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: streamed export differs from the serializer:\ngot:\n%s\nwant:\n%s", name, got.Bytes(), want.Bytes())
		}
	}
}

func TestWriteStats(t *testing.T) {
	det := demoDetector(t)
	res, err := det.RunReader(strings.NewReader(demoXML))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteStats(&b, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"KG=", "SW=", "TC=", "DD=", "comparisons="} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("stats output missing %q: %s", want, b.String())
		}
	}
}

func TestTuneThroughFacade(t *testing.T) {
	// Reuse the demo config/data: plant gold ids so tuning has truth.
	xmlStr := `<movie_database><movies>
	  <movie x-gold="a"><title>Silent River</title>
	    <people><person>Keanu Reeves</person></people></movie>
	  <movie x-gold="a"><title>Silnt River</title>
	    <people><person>Keanu Reeves</person></people></movie>
	  <movie x-gold="b"><title>Broken Storm</title>
	    <people><person>Uma Thurman</person></people></movie>
	</movies></movie_database>`
	cfg, err := LoadConfig(strings.NewReader(demoConfig))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseXMLString(xmlStr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(doc, cfg, TuneOptions{
		Candidate:  "movie",
		Thresholds: []float64{0.6, 0.8, 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score != 1 {
		t.Errorf("best score = %v, want 1 on this trivial sample", res.Best.Score)
	}
	if res.Best.Threshold == 0.99 {
		t.Error("threshold 0.99 cannot detect the typo pair")
	}
	if err := ApplyTuned(cfg, "movie", res.Best); err != nil {
		t.Fatal(err)
	}
	if cfg.Candidate("movie").Threshold != res.Best.Threshold {
		t.Error("ApplyTuned did not update the config")
	}
}

func TestEvalFacade(t *testing.T) {
	xmlStr := `<movie_database><movies>
	  <movie x-gold="a"><title>Silent River</title>
	    <people><person>K</person></people></movie>
	  <movie x-gold="a"><title>Silnt River</title>
	    <people><person>K</person></people></movie>
	  <movie x-gold="b"><title>Broken Storm</title>
	    <people><person>U</person></people></movie>
	</movies></movie_database>`
	det := demoDetector(t)
	doc, err := ParseXMLString(xmlStr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	gold, err := BuildGold(doc, "movie_database/movies/movie")
	if err != nil {
		t.Fatal(err)
	}
	m := PairwiseMetrics(gold, res.Clusters["movie"])
	if m.F1 != 1 {
		t.Errorf("pairwise F = %v, want 1 (%s)", m.F1, m)
	}
	cm := ClusterLevelMetrics(gold, res.Clusters["movie"])
	if cm.F != 1 {
		t.Errorf("cluster-level F = %v, want 1", cm.F)
	}
	if _, err := BuildGold(doc, "[["); err == nil {
		t.Error("bad path should fail")
	}
}
