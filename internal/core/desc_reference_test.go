package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/similarity"
)

// mapDescClusters is the map-based l_e resolution that the flat
// per-type layout replaced: per descendant name, the cluster IDs of the
// row's Desc elements in Desc order, with unprocessed names left out
// and unknown element IDs dropped.
func mapDescClusters(row *GKRow, clusters map[string]*cluster.ClusterSet) map[string][]int {
	if len(row.Desc) == 0 {
		return nil
	}
	out := make(map[string][]int, len(row.Desc))
	for name, eids := range row.Desc {
		cs, ok := clusters[name]
		if !ok {
			continue
		}
		cids := make([]int, 0, len(eids))
		for _, eid := range eids {
			if cid, ok := cs.CID(eid); ok {
				cids = append(cids, cid)
			}
		}
		out[name] = cids
	}
	return out
}

// mapDescendantSimilarity is the map-based Def. 3 the flat layout
// replaced, kept as its oracle: the union of both rows' type names in
// sorted order, both-empty types skipped, similarity.Overlap per type
// and similarity.Average over them.
func mapDescendantSimilarity(a, b map[string][]int) (float64, bool) {
	if a == nil && b == nil {
		return 0, false
	}
	types := make(map[string]struct{}, len(a)+len(b))
	for name := range a {
		types[name] = struct{}{}
	}
	for name := range b {
		types[name] = struct{}{}
	}
	names := make([]string, 0, len(types))
	for name := range types {
		names = append(names, name)
	}
	sort.Strings(names)
	var sims []float64
	for _, name := range names {
		la, lb := a[name], b[name]
		if len(la) == 0 && len(lb) == 0 {
			continue
		}
		sims = append(sims, similarity.Overlap(la, lb))
	}
	if len(sims) == 0 {
		return 0, false
	}
	return similarity.Average(sims), true
}

// randomDescTable builds a table whose rows carry random descendant
// multisets over three types: "a" and "b" have cluster sets, "c" was
// never processed. Lists may be empty, repeat an element, or name
// element IDs no cluster set knows.
func randomDescTable(rng *rand.Rand) (*GKTable, map[string]*cluster.ClusterSet) {
	clusters := make(map[string]*cluster.ClusterSet)
	for _, name := range []string{"a", "b"} {
		universe := make([]int, 24)
		for i := range universe {
			universe[i] = i + 1
		}
		var pairs []cluster.Pair
		for i := rng.Intn(20); i > 0; i-- {
			x, y := universe[rng.Intn(24)], universe[rng.Intn(24)]
			if x != y {
				pairs = append(pairs, cluster.MakePair(x, y))
			}
		}
		clusters[name] = cluster.FromPairs(universe, pairs)
	}
	t := &GKTable{}
	for r := 0; r < 12; r++ {
		row := GKRow{EID: 100 + r}
		for _, name := range []string{"a", "b", "c"} {
			if rng.Intn(3) == 0 {
				continue // type missing from this row
			}
			if row.Desc == nil {
				row.Desc = make(map[string][]int)
			}
			var eids []int
			for i := rng.Intn(5); i > 0; i-- {
				eid := 1 + rng.Intn(24)
				if rng.Intn(6) == 0 {
					eid = 900 + rng.Intn(3) // unresolved
				}
				eids = append(eids, eid)
			}
			row.Desc[name] = eids // possibly empty
		}
		t.Rows = append(t.Rows, row)
	}
	return t, clusters
}

// TestDescendantSimilarityMatchesMapOracle compares the flat Def. 3 —
// uncached and through a similarity cache — with the map-based oracle
// on every ordered pair of random rows, bit for bit, and checks that a
// row resolved on its own (the spill decode path) gets the same lists
// as the table-wide resolution.
func TestDescendantSimilarityMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		tbl, clusters := randomDescTable(rng)
		oracle := make([]map[string][]int, len(tbl.Rows))
		for i := range tbl.Rows {
			oracle[i] = mapDescClusters(&tbl.Rows[i], clusters)
		}
		resolveDescClusters(tbl, clusters)
		cache := similarity.NewCache(64)
		cached := make([]GKRow, len(tbl.Rows))
		copy(cached, tbl.Rows)
		for i := range cached {
			cached[i].desc = slices.Clone(cached[i].desc)
			internRowDescSets(&cached[i], cache)
		}
		sets := tbl.setDescTypes(clusters)
		for i := range tbl.Rows {
			a := &tbl.Rows[i]
			single := GKRow{EID: a.EID, Desc: a.Desc}
			if len(a.Desc) > 0 {
				single.desc = make([]descList, len(tbl.descTypes))
				resolveRowDesc(&single, tbl.descTypes, sets, nil)
			}
			if fmt.Sprint(single.desc) != fmt.Sprint(a.desc) {
				t.Fatalf("trial %d row %d: per-row lists %v, table-wide %v", trial, i, single.desc, a.desc)
			}
			for j := range tbl.Rows {
				b := &tbl.Rows[j]
				want, wantOK := mapDescendantSimilarity(oracle[i], oracle[j])
				got, gotOK := descendantSimilarity(a, b, nil)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d rows %d,%d: flat = %v,%v, oracle = %v,%v\n%v\n%v",
						trial, i, j, got, gotOK, want, wantOK, a.Desc, b.Desc)
				}
				got, gotOK = descendantSimilarity(&cached[i], &cached[j], cache)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d rows %d,%d: cached = %v,%v, oracle = %v,%v", trial, i, j, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestGKRowSize pins the row's footprint: the flat descendant lists
// replaced two per-row maps (one word each) with one slice (three
// words), and a table holds one GKRow per candidate instance, so the
// row may grow by that one word and no more.
func TestGKRowSize(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	if got, max := unsafe.Sizeof(GKRow{}), 15*word; got > max {
		t.Errorf("GKRow is %d bytes, want at most %d", got, max)
	}
}
