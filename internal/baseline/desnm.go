package baseline

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/xmltree"
)

// DESNMResult reports the outcome of a DE-SNM run.
type DESNMResult struct {
	Clusters map[string]*cluster.ClusterSet
	// Comparisons is the number of window similarity computations.
	Comparisons int
	// Eliminated counts rows removed by the duplicate elimination
	// pre-pass (they re-enter their representative's cluster at the
	// end).
	Eliminated int
	Duration   time.Duration
}

// DESNM runs the Duplicate Elimination Sorted Neighborhood Method: for
// each candidate, rows whose first key and object description values
// are byte-identical are collapsed to a single representative before
// the sliding-window passes; afterwards the eliminated rows join their
// representative's cluster. On data with many exact duplicates this
// shrinks the windowed table substantially.
func DESNM(doc *xmltree.Document, cfg *config.Config, opts core.Options) (*DESNMResult, error) {
	start := time.Now()
	kg, err := core.GenerateKeys(doc, cfg)
	if err != nil {
		return nil, err
	}
	res := &DESNMResult{Clusters: make(map[string]*cluster.ClusterSet, len(cfg.Candidates))}
	for _, cand := range core.DetectionOrder(kg, cfg) {
		t := kg.Tables[cand.Name]
		useDesc := cand.DescendantsEnabled() && !opts.DisableDescendants
		if useDesc {
			core.ResolveDescendantClusters(t, res.Clusters)
		}

		// Duplicate elimination: group rows by exact (key1, OD) value.
		groups := make(map[string][]int, len(t.Rows)) // signature -> row indices
		sigs := make([]string, 0, len(t.Rows))
		for i := range t.Rows {
			sig := exactSignature(&t.Rows[i])
			if _, ok := groups[sig]; !ok {
				sigs = append(sigs, sig)
			}
			groups[sig] = append(groups[sig], i)
		}
		sort.Strings(sigs)

		uf := cluster.NewUnionFind()
		for i := range t.Rows {
			uf.Add(t.Rows[i].EID)
		}
		reps := make([]int, 0, len(sigs)) // representative row indices
		for _, sig := range sigs {
			idxs := groups[sig]
			rep := idxs[0]
			reps = append(reps, rep)
			for _, other := range idxs[1:] {
				uf.Union(t.Rows[rep].EID, t.Rows[other].EID)
				res.Eliminated++
			}
		}

		// Multi-pass sliding window over representatives only.
		keys := cand.CompiledKeys()
		w := cand.Window
		seen := make(map[[2]int]struct{})
		order := make([]int, len(reps))
		for pass := range keys {
			copy(order, reps)
			k := pass
			sort.SliceStable(order, func(a, b int) bool {
				ra, rb := &t.Rows[order[a]], &t.Rows[order[b]]
				if ra.Keys[k] != rb.Keys[k] {
					return ra.Keys[k] < rb.Keys[k]
				}
				return ra.EID < rb.EID
			})
			for i := 1; i < len(order); i++ {
				lo := i - (w - 1)
				if lo < 0 {
					lo = 0
				}
				for j := lo; j < i; j++ {
					a, b := &t.Rows[order[j]], &t.Rows[order[i]]
					pk := [2]int{minInt(a.EID, b.EID), maxInt(a.EID, b.EID)}
					if _, dup := seen[pk]; dup {
						continue
					}
					seen[pk] = struct{}{}
					res.Comparisons++
					_, _, _, isDup, err := t.ComparePair(a, b, useDesc)
					if err != nil {
						return nil, err
					}
					if isDup {
						uf.Union(a.EID, b.EID)
					}
				}
			}
		}
		res.Clusters[cand.Name] = cluster.Build(uf)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// exactSignature builds the elimination key: the first generated key
// plus all OD values, NUL-separated.
func exactSignature(r *core.GKRow) string {
	sig := ""
	if len(r.Keys) > 0 {
		sig = r.Keys[0]
	}
	for _, vals := range r.OD {
		sig += "\x00"
		for _, v := range vals {
			sig += "\x01" + v
		}
	}
	return sig
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
