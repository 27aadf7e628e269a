// Package cluster implements the transitive-closure machinery of SXNM:
// a union-find structure over element IDs and the cluster sets of
// Definition 1, which assign every element instance to exactly one
// cluster representing one real-world object.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// UnionFind is a disjoint-set forest over arbitrary int element IDs
// with path compression and union by size. Elements are registered
// lazily: an ID that was never seen is its own singleton set. The
// forest itself is slice-backed over dense int32 indices assigned in
// registration order; one map translates element IDs to them.
type UnionFind struct {
	index  map[int]int32 // element ID -> dense index
	ids    []int         // dense index -> element ID
	parent []int32
	size   []int32
	unions int
}

// NewUnionFind returns an empty union-find.
func NewUnionFind() *UnionFind { return NewUnionFindSize(0) }

// NewUnionFindSize returns an empty union-find with room for n elements
// before it has to grow.
func NewUnionFindSize(n int) *UnionFind {
	return &UnionFind{
		index:  make(map[int]int32, n),
		ids:    make([]int, 0, n),
		parent: make([]int32, 0, n),
		size:   make([]int32, 0, n),
	}
}

// Add registers id as a singleton if it is not yet known.
func (u *UnionFind) Add(id int) { u.at(id) }

// at returns id's dense index, registering id if new.
func (u *UnionFind) at(id int) int32 {
	if i, ok := u.index[id]; ok {
		return i
	}
	i := int32(len(u.ids))
	u.index[id] = i
	u.ids = append(u.ids, id)
	u.parent = append(u.parent, i)
	u.size = append(u.size, 1)
	return i
}

// root returns the root index of i's tree, compressing the path.
func (u *UnionFind) root(i int32) int32 {
	r := i
	for u.parent[r] != r {
		r = u.parent[r]
	}
	for u.parent[i] != r {
		u.parent[i], i = r, u.parent[i]
	}
	return r
}

// Find returns the representative of id's set, registering id if new.
func (u *UnionFind) Find(id int) int { return u.ids[u.root(u.at(id))] }

// Union merges the sets containing a and b and reports whether a merge
// happened (false if they were already in the same set).
func (u *UnionFind) Union(a, b int) bool {
	ia, ib := u.at(a), u.at(b)
	ra, rb := u.root(ia), u.root(ib)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.unions++
	return true
}

// Same reports whether a and b are currently in the same set.
func (u *UnionFind) Same(a, b int) bool { return u.Find(a) == u.Find(b) }

// Len returns the number of registered elements.
func (u *UnionFind) Len() int { return len(u.ids) }

// Unions returns the number of successful merges performed.
func (u *UnionFind) Unions() int { return u.unions }

// Sets returns the current partition as a slice of ID slices, each
// sorted ascending, with the slice of sets sorted by smallest member.
func (u *UnionFind) Sets() [][]int {
	cs := Build(u)
	out := make([][]int, len(cs.Clusters))
	for i, c := range cs.Clusters {
		out[i] = c.Members
	}
	return out
}

// Pair is an unordered duplicate pair of element IDs with A < B.
type Pair struct {
	A, B int
}

// MakePair normalizes (a, b) into a Pair with A < B.
func MakePair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Set is one duplicate cluster: the IDs of all element instances that
// represent the same real-world object.
type Set struct {
	ID      int
	Members []int // sorted ascending
}

// ClusterSet is the CS relation of Definition 1 for one candidate: a
// partition of element IDs into clusters, with a lookup from element
// ID to cluster ID.
type ClusterSet struct {
	Clusters []Set
	ids      []int   // every element ID, ascending
	cids     []int32 // cluster ID of ids[i]
}

// Build materializes a ClusterSet from a union-find: every registered
// element lands in exactly one cluster. Cluster IDs are assigned in
// order of each cluster's smallest member, starting at 1, which makes
// results deterministic across runs. One pass over the elements in
// ascending ID order numbers the clusters, and a second cuts their
// members, already ascending, from a single backing array.
func Build(u *UnionFind) *ClusterSet {
	n := len(u.ids)
	order := make([]int32, n) // dense indices by ascending element ID
	for i := range order {
		order[i] = int32(i)
	}
	if !slices.IsSorted(u.ids) {
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(u.ids[a], u.ids[b]) })
	}
	cs := &ClusterSet{ids: make([]int, n), cids: make([]int32, n)}
	clusterOf := make([]int32, n) // root index -> cluster ID (0: none yet)
	var sizes []int32
	for k, i := range order {
		r := u.root(i)
		if clusterOf[r] == 0 {
			sizes = append(sizes, u.size[r])
			clusterOf[r] = int32(len(sizes))
		}
		cs.ids[k] = u.ids[i]
		cs.cids[k] = clusterOf[r]
	}
	cs.Clusters = make([]Set, len(sizes))
	next := make([]int, len(sizes)) // fill position per cluster
	off := 0
	for c, sz := range sizes {
		next[c] = off
		off += int(sz)
	}
	members := make([]int, n)
	for k, id := range cs.ids {
		c := cs.cids[k] - 1
		members[next[c]] = id
		next[c]++
	}
	off = 0
	for c, sz := range sizes {
		end := off + int(sz)
		cs.Clusters[c] = Set{ID: c + 1, Members: members[off:end:end]}
		off = end
	}
	return cs
}

// FromPairs is a convenience that builds a ClusterSet directly from
// duplicate pairs plus the universe of all element IDs (so unmatched
// elements become singleton clusters).
func FromPairs(universe []int, pairs []Pair) *ClusterSet {
	u := NewUnionFindSize(len(universe))
	for _, id := range universe {
		u.Add(id)
	}
	for _, p := range pairs {
		u.Union(p.A, p.B)
	}
	return Build(u)
}

// CID returns the cluster ID of the given element — the paper's cid()
// function — and whether the element is known to this cluster set.
func (cs *ClusterSet) CID(elementID int) (int, bool) {
	k, ok := slices.BinarySearch(cs.ids, elementID)
	if !ok {
		return 0, false
	}
	return int(cs.cids[k]), true
}

// Cluster returns the cluster with the given ID, or nil.
func (cs *ClusterSet) Cluster(clusterID int) *Set {
	if clusterID < 1 || clusterID > len(cs.Clusters) {
		return nil
	}
	return &cs.Clusters[clusterID-1]
}

// Len returns the number of clusters.
func (cs *ClusterSet) Len() int { return len(cs.Clusters) }

// Elements returns the total number of elements across all clusters.
func (cs *ClusterSet) Elements() int { return len(cs.ids) }

// DuplicatePairs enumerates all intra-cluster pairs — the transitive
// closure of the detected duplicate relation. The result is sorted.
func (cs *ClusterSet) DuplicatePairs() []Pair {
	var out []Pair
	for _, c := range cs.Clusters {
		for i := 0; i < len(c.Members); i++ {
			for j := i + 1; j < len(c.Members); j++ {
				out = append(out, Pair{A: c.Members[i], B: c.Members[j]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// NonSingletons returns the clusters with at least two members — the
// detected duplicate groups.
func (cs *ClusterSet) NonSingletons() []Set {
	var out []Set
	for _, c := range cs.Clusters {
		if len(c.Members) > 1 {
			out = append(out, c)
		}
	}
	return out
}

// String renders the cluster set in the style of Table 2(b).
func (cs *ClusterSet) String() string {
	var b strings.Builder
	for _, c := range cs.Clusters {
		fmt.Fprintf(&b, "%d: %v\n", c.ID, c.Members)
	}
	return b.String()
}
