// Package baseline implements the comparison methods SXNM is measured
// against or extended with:
//
//   - AllPairs — exhaustive nested-loop comparison with SXNM's own
//     similarity measure. The paper notes that "the precision for
//     large window sizes converges to the precision the similarity
//     obtains when comparing all pairs"; this baseline produces that
//     reference value.
//   - DESNM — the Duplicate Elimination SNM of Hernández's thesis
//     ([19], named as future work in Sec. 5): exact-key duplicates are
//     eliminated before windowing, reducing comparisons.
//   - Incremental — the incremental SNM variant mentioned in Sec. 2.2
//     for "repeatedly updated data": new batches are merged into the
//     already-deduplicated sorted key lists, and only windows around
//     insertions are compared.
package baseline

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/xmltree"
)

// AllPairsResult mirrors core.Result for the exhaustive baseline.
type AllPairsResult struct {
	Clusters    map[string]*cluster.ClusterSet
	Comparisons int
	Duration    time.Duration
}

// AllPairs runs bottom-up duplicate detection comparing every pair of
// every candidate — no keys, no windows. Complexity is O(n²) per
// candidate; it exists to provide the quality ceiling that SXNM's
// precision converges to with growing windows.
func AllPairs(doc *xmltree.Document, cfg *config.Config, opts core.Options) (*AllPairsResult, error) {
	start := time.Now()
	kg, err := core.GenerateKeys(doc, cfg)
	if err != nil {
		return nil, err
	}
	res := &AllPairsResult{Clusters: make(map[string]*cluster.ClusterSet, len(cfg.Candidates))}
	for _, cand := range core.DetectionOrder(kg, cfg) {
		t := kg.Tables[cand.Name]
		useDesc := cand.DescendantsEnabled() && !opts.DisableDescendants
		if useDesc {
			core.ResolveDescendantClusters(t, res.Clusters)
		}
		uf := cluster.NewUnionFind()
		for i := range t.Rows {
			uf.Add(t.Rows[i].EID)
		}
		for i := 0; i < len(t.Rows); i++ {
			for j := i + 1; j < len(t.Rows); j++ {
				res.Comparisons++
				_, _, _, dup, err := t.ComparePair(&t.Rows[i], &t.Rows[j], useDesc)
				if err != nil {
					return nil, err
				}
				if dup {
					uf.Union(t.Rows[i].EID, t.Rows[j].EID)
				}
			}
		}
		res.Clusters[cand.Name] = cluster.Build(uf)
	}
	res.Duration = time.Since(start)
	return res, nil
}
