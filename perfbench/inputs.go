package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/xmltree"
)

// corpus is one generated input: the document and its configuration,
// written to files for the binaries and kept in memory for the checks.
type corpus struct {
	cfg      *config.Config
	docPath  string
	cfgPath  string
	docBytes []byte
	cfgXML   string
}

// generate builds a workload's document from the seed. objects and
// kind follow workloads.json; the returned document is the generator's
// in-memory tree (its node IDs are not the ones a parse assigns).
func generate(name string, objects int, seed int64) (*xmltree.Document, *config.Config, error) {
	switch name {
	case "movies-flat", "daemon-jobs":
		doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: objects, Seed: seed})
		return doc, config.DataSet1(0), err
	case "cds-nested":
		return dataset.DataSet3(objects, seed), config.DataSet3(0), nil
	case "stream-spill":
		doc, err := dataset.ScalabilityData(objects, dataset.ManyDuplicates, seed)
		return doc, dataset.ScalabilityConfig(0), err
	}
	return nil, nil, fmt.Errorf("no generator for workload %q", name)
}

// writeCorpus generates and serializes one input into dir under tag.
func writeCorpus(dir, tag, name string, objects int, seed int64) (*corpus, error) {
	doc, cfg, err := generate(name, objects, seed)
	if err != nil {
		return nil, err
	}
	c := &corpus{
		docPath:  filepath.Join(dir, tag+".xml"),
		cfgPath:  filepath.Join(dir, tag+"-config.xml"),
		docBytes: render(doc),
		cfgXML:   string(render(cfg.Document())),
	}
	// In-process runs use the configuration as the programs load it.
	if c.cfg, err = config.Parse(strings.NewReader(c.cfgXML)); err != nil {
		return nil, err
	}
	if err := os.WriteFile(c.docPath, c.docBytes, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(c.cfgPath, []byte(c.cfgXML), 0o644); err != nil {
		return nil, err
	}
	return c, nil
}

// render serializes a document the way cmd/xmlgen writes it.
func render(doc *xmltree.Document) []byte {
	var b bytes.Buffer
	_ = doc.Write(&b, xmltree.WriteOptions{Indent: "  ", Header: true}) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// clusterMap is a run's cluster sets: candidate → clusters → members.
type clusterMap map[string][][]int

// digest is an order-independent fingerprint of the partition.
func (cm clusterMap) digest() string {
	names := make([]string, 0, len(cm))
	for n := range cm {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		cs := make([][]int, 0, len(cm[n]))
		for _, c := range cm[n] {
			m := append([]int(nil), c...)
			sort.Ints(m)
			cs = append(cs, m)
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i][0] < cs[j][0] })
		fmt.Fprintf(h, "%s\n", n)
		for _, c := range cs {
			fmt.Fprintln(h, c)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func clustersOfResult(res *core.Result) clusterMap {
	cm := clusterMap{}
	for name, cs := range res.Clusters {
		for _, c := range cs.Clusters {
			cm[name] = append(cm[name], c.Members)
		}
	}
	return cm
}

// readClustersXML parses the -clusters-xml output of sxnm.
func readClustersXML(path string) (clusterMap, error) {
	doc, err := xmltree.ParseFile(path)
	if err != nil {
		return nil, err
	}
	cm := clusterMap{}
	for _, cand := range doc.Root.ChildElements("candidate") {
		name, _ := cand.Attr("name")
		for _, cl := range cand.ChildElements("cluster") {
			var members []int
			for _, el := range cl.ChildElements("element") {
				v, _ := el.Attr("id")
				id, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("%s: element id %q: %w", path, v, err)
				}
				members = append(members, id)
			}
			cm[name] = append(cm[name], members)
		}
	}
	return cm, nil
}

// goldPairs counts the detected duplicate pairs against the x-gold
// identities of the parsed document, whose node IDs match the ones the
// program under test assigned when it parsed the same bytes. It sums
// over the named candidates, or over every candidate whose elements
// carry gold when none are named.
type goldPairs struct{ tp, fp, fn int }

func (g *goldPairs) add(doc *xmltree.Document, cfg *config.Config, cm clusterMap, only []string) error {
	for _, cand := range cfg.Candidates {
		if len(only) > 0 && !slices.Contains(only, cand.Name) {
			continue
		}
		gold, err := eval.BuildGold(doc, cand.XPath)
		if err != nil {
			return err
		}
		if len(gold.ByEID) == 0 {
			continue
		}
		var universe []int
		var pairs []cluster.Pair
		for _, c := range cm[cand.Name] {
			universe = append(universe, c...)
			for _, m := range c[1:] {
				pairs = append(pairs, cluster.MakePair(c[0], m))
			}
		}
		pm := eval.PairwiseMetrics(gold, cluster.FromPairs(universe, pairs))
		g.tp, g.fp, g.fn = g.tp+pm.TP, g.fp+pm.FP, g.fn+pm.FN
	}
	return nil
}

// f1 is the pairwise F1 of the counted pairs.
func (g *goldPairs) f1() (float64, error) {
	if g.tp == 0 {
		return 0, fmt.Errorf("no gold duplicate pair was found")
	}
	p, r := float64(g.tp)/float64(g.tp+g.fp), float64(g.tp)/float64(g.tp+g.fn)
	return 2 * p * r / (p + r), nil
}
