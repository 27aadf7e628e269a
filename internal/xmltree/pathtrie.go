package xmltree

import "strings"

// PathTrie matches elements against a fixed set of plain element paths
// ("a/b/c": slash-separated names, no axes, wildcards or predicates)
// without building a path string per element. A caller keeps one
// *PathNode per open element: the root element's node is
// Root().Child(name), and each child's is its parent's Child(name). A
// nil node means no path continues below that element; Child and Value
// are nil-safe, so a dead branch costs one nil check per element.
type PathTrie struct {
	root PathNode
}

// PathNode is a position in a PathTrie: the set of paths sharing the
// element path walked so far.
type PathNode struct {
	kids []pathEdge
	val  int
}

type pathEdge struct {
	name string
	node *PathNode
}

// NewPathTrie returns an empty trie.
func NewPathTrie() *PathTrie {
	return &PathTrie{root: PathNode{val: -1}}
}

// Insert maps path to v (v ≥ 0); inserting a path again replaces its
// value.
func (t *PathTrie) Insert(path string, v int) {
	n := &t.root
	for _, name := range strings.Split(path, "/") {
		next := n.Child(name)
		if next == nil {
			next = &PathNode{val: -1}
			n.kids = append(n.kids, pathEdge{name: name, node: next})
		}
		n = next
	}
	n.val = v
}

// Root returns the node above the document's root element.
func (t *PathTrie) Root() *PathNode { return &t.root }

// Child returns the node reached by an element named name below n, or
// nil when no path continues that way.
func (n *PathNode) Child(name string) *PathNode {
	if n == nil {
		return nil
	}
	for i := range n.kids {
		if n.kids[i].name == name {
			return n.kids[i].node
		}
	}
	return nil
}

// Value returns the value of the path ending at n, or -1 when no path
// ends there.
func (n *PathNode) Value() int {
	if n == nil {
		return -1
	}
	return n.val
}
