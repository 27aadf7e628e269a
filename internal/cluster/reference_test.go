package cluster

import (
	"math/rand"
	"slices"
	"testing"
)

// bfsClosure is the closure oracle for UnionFind and Build: the
// connected components of the graph whose vertices are the registered
// IDs and whose edges are the unioned pairs, found by breadth-first
// search, each sorted ascending and ordered by smallest member.
func bfsClosure(registered []int, pairs [][2]int) [][]int {
	adj := make(map[int][]int)
	for _, p := range pairs {
		adj[p[0]] = append(adj[p[0]], p[1])
		adj[p[1]] = append(adj[p[1]], p[0])
	}
	seen := make(map[int]bool)
	var out [][]int
	for _, start := range registered {
		if seen[start] {
			continue
		}
		seen[start] = true
		comp := []int{start}
		for q := []int{start}; len(q) > 0; q = q[1:] {
			for _, nb := range adj[q[0]] {
				if !seen[nb] {
					seen[nb] = true
					comp = append(comp, nb)
					q = append(q, nb)
				}
			}
		}
		slices.Sort(comp)
		out = append(out, comp)
	}
	slices.SortFunc(out, func(a, b []int) int { return a[0] - b[0] })
	return out
}

// TestBuildMatchesBFSClosure drives the dense union-find with random
// operation sequences — IDs added out of order, sparse and negative
// IDs, repeated and self pairs, IDs registered only through Union —
// and checks Build, Sets, CID, Elements, Len and Unions against the
// BFS oracle.
func TestBuildMatchesBFSClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		// A sparse, signed ID pool: small negatives, a dense block,
		// and a few far-out values.
		pool := []int{-1 << 40, -7, -3, 0, 1, 2, 3, 9, 10, 11, 500, 1 << 33}
		for i := rng.Intn(20); i > 0; i-- {
			pool = append(pool, rng.Intn(2000)-1000)
		}
		pick := func() int { return pool[rng.Intn(len(pool))] }

		u := NewUnionFind()
		var registered []int
		register := func(id int) {
			if !slices.Contains(registered, id) {
				registered = append(registered, id)
			}
		}
		var pairs [][2]int
		for op := rng.Intn(40); op > 0; op-- {
			switch rng.Intn(4) {
			case 0:
				id := pick()
				u.Add(id)
				register(id)
			case 1: // self pair
				id := pick()
				if u.Union(id, id) {
					t.Fatalf("trial %d: self union %d merged", trial, id)
				}
				register(id)
			default:
				a, b := pick(), pick()
				u.Union(a, b)
				register(a)
				register(b)
				pairs = append(pairs, [2]int{a, b})
				if rng.Intn(4) == 0 { // repeat it, possibly reversed
					u.Union(b, a)
					pairs = append(pairs, [2]int{b, a})
				}
			}
		}
		want := bfsClosure(registered, pairs)
		cs := Build(u)
		if u.Len() != len(registered) || cs.Elements() != len(registered) {
			t.Fatalf("trial %d: Len %d, Elements %d, want %d", trial, u.Len(), cs.Elements(), len(registered))
		}
		if got := u.Unions(); got != len(registered)-len(want) {
			t.Fatalf("trial %d: Unions = %d, want %d", trial, got, len(registered)-len(want))
		}
		if len(cs.Clusters) != len(want) {
			t.Fatalf("trial %d: %d clusters, want %d", trial, len(cs.Clusters), len(want))
		}
		for i, c := range cs.Clusters {
			if c.ID != i+1 || !slices.Equal(c.Members, want[i]) {
				t.Fatalf("trial %d: cluster %d = %d:%v, want %d:%v", trial, i, c.ID, c.Members, i+1, want[i])
			}
			for _, m := range c.Members {
				if cid, ok := cs.CID(m); !ok || cid != c.ID {
					t.Fatalf("trial %d: CID(%d) = %d,%v, want %d", trial, m, cid, ok, c.ID)
				}
			}
		}
		for _, id := range pool {
			if _, ok := cs.CID(id); ok != slices.Contains(registered, id) {
				t.Fatalf("trial %d: CID(%d) known = %v, registered = %v", trial, id, ok, !ok)
			}
		}
		if got := u.Sets(); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("trial %d: Sets = %v, want %v", trial, got, want)
		}
		// Find agrees with the partition after Build compressed paths.
		for _, comp := range want {
			for _, m := range comp {
				if u.Find(m) != u.Find(comp[0]) {
					t.Fatalf("trial %d: Find(%d) != Find(%d)", trial, m, comp[0])
				}
			}
		}
	}
}

// TestBuildMembersDoNotAlias checks that appending to one cluster's
// member slice cannot overwrite the next cluster's members, which
// share Build's backing array.
func TestBuildMembersDoNotAlias(t *testing.T) {
	cs := FromPairs([]int{1, 2, 3, 4}, []Pair{{A: 1, B: 2}, {A: 3, B: 4}})
	_ = append(cs.Clusters[0].Members, 99)
	if !slices.Equal(cs.Clusters[1].Members, []int{3, 4}) {
		t.Fatalf("second cluster = %v after appending to the first", cs.Clusters[1].Members)
	}
}
