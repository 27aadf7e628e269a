// Package xmltree implements the XML document model SXNM operates on:
// an ordered tree of element and text nodes with parent links,
// attributes, document-order identifiers, parsing and serialization.
//
// Parsing runs on the package's own byte-level Scanner, which both the
// DOM parser and the streaming key generator consume.
//
// The model is deliberately small — namespaces are flattened to local
// names, comments and processing instructions are dropped — because the
// paper's algorithm only needs element structure, attributes, and text.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates node types in the tree.
type Kind int

const (
	// ElementNode is an XML element; Name holds the local tag name.
	ElementNode Kind = iota
	// TextNode is a run of character data; Data holds the text.
	TextNode
)

// Attr is a single attribute of an element node.
type Attr struct {
	Name  string
	Value string
}

// Node is an element or text node in the document tree.
//
// ID is the node's position in document order, assigned by Parse or
// Document.Renumber. SXNM uses it as the element ID (eid) stored in GK
// relations, so it must be unique per document.
type Node struct {
	Kind     Kind
	Name     string // element name; empty for text nodes
	Data     string // text content; empty for element nodes
	Attrs    []Attr
	Parent   *Node
	Children []*Node
	ID       int
}

// Document wraps the root element of a parsed or constructed document.
type Document struct {
	Root *Node
}

// NewElement returns a parentless element node with the given name.
func NewElement(name string) *Node {
	return &Node{Kind: ElementNode, Name: name}
}

// NewText returns a parentless text node with the given content.
func NewText(data string) *Node {
	return &Node{Kind: TextNode, Data: data}
}

// AppendChild appends c to n's children and sets c's parent.
// It panics if n is not an element node.
func (n *Node) AppendChild(c *Node) {
	if n.Kind != ElementNode {
		panic("xmltree: AppendChild on non-element node")
	}
	c.Parent = n
	n.Children = append(n.Children, c)
}

// InsertChildAt inserts c at index i among n's children.
// Index len(n.Children) appends.
func (n *Node) InsertChildAt(i int, c *Node) {
	if n.Kind != ElementNode {
		panic("xmltree: InsertChildAt on non-element node")
	}
	if i < 0 || i > len(n.Children) {
		panic(fmt.Sprintf("xmltree: InsertChildAt index %d out of range [0,%d]", i, len(n.Children)))
	}
	c.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// RemoveChild removes c from n's children and clears c's parent.
// It reports whether c was found.
func (n *Node) RemoveChild(c *Node) bool {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.Parent = nil
			return true
		}
	}
	return false
}

// SetAttr sets attribute name to value, replacing an existing value.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// RemoveAttr deletes the named attribute, reporting whether it existed.
func (n *Node) RemoveAttr(name string) bool {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return true
		}
	}
	return false
}

// ChildElements returns the element children of n, or only those with
// the given name if name is non-empty.
func (n *Node) ChildElements(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode && (name == "" || c.Name == name) {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first element child with the given
// name, or nil.
func (n *Node) FirstChildElement(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// Text returns the concatenation of the direct text children of n,
// with surrounding whitespace trimmed. It does not descend into child
// elements; use DeepText for that.
func (n *Node) Text() string {
	var b strings.Builder
	for _, c := range n.Children {
		if c.Kind == TextNode {
			b.WriteString(c.Data)
		}
	}
	return strings.TrimSpace(b.String())
}

// SetText replaces all direct text children of n with a single text
// node holding data (or removes them all if data is empty).
func (n *Node) SetText(data string) {
	kept := n.Children[:0]
	for _, c := range n.Children {
		if c.Kind != TextNode {
			kept = append(kept, c)
		}
	}
	n.Children = kept
	if data != "" {
		n.AppendChild(NewText(data))
	}
}

// DeepText returns the concatenation of all descendant text, in
// document order, whitespace-trimmed at the ends.
func (n *Node) DeepText() string {
	var b strings.Builder
	n.Walk(func(d *Node) bool {
		if d.Kind == TextNode {
			b.WriteString(d.Data)
		}
		return true
	})
	return strings.TrimSpace(b.String())
}

// Walk visits n and its descendants in document order. If fn returns
// false for a node, that node's children are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// AbsolutePath returns the slash-separated element names from the root
// to n (e.g. "movie_database/movies/movie"). Text nodes return the
// path of their parent element.
func (n *Node) AbsolutePath() string {
	if n.Kind == TextNode {
		if n.Parent == nil {
			return ""
		}
		return n.Parent.AbsolutePath()
	}
	var parts []string
	for e := n; e != nil; e = e.Parent {
		parts = append(parts, e.Name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// Depth returns the number of ancestors of n (root has depth 0).
func (n *Node) Depth() int {
	d := 0
	for e := n.Parent; e != nil; e = e.Parent {
		d++
	}
	return d
}

// IsAncestorOf reports whether n is a strict ancestor of d.
func (n *Node) IsAncestorOf(d *Node) bool {
	for e := d.Parent; e != nil; e = e.Parent {
		if e == n {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of n's subtree. The copy has no parent and
// node IDs equal to the originals'; call Document.Renumber after
// grafting clones into a document.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Data: n.Data, ID: n.ID}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for _, ch := range n.Children {
		c.AppendChild(ch.Clone())
	}
	return c
}

// CountElements returns the number of element nodes in n's subtree,
// including n itself.
func (n *Node) CountElements() int {
	count := 0
	n.Walk(func(d *Node) bool {
		if d.Kind == ElementNode {
			count++
		}
		return true
	})
	return count
}

// NewDocument creates a document around the given root element.
// Node IDs are assigned immediately.
func NewDocument(root *Node) *Document {
	d := &Document{Root: root}
	d.Renumber()
	return d
}

// Renumber assigns fresh document-order IDs to every node, starting at
// 1 for the root. Call after structural mutation (e.g. by the dirty
// data generator).
func (d *Document) Renumber() {
	id := 0
	d.Root.Walk(func(n *Node) bool {
		id++
		n.ID = id
		return true
	})
}

// NodeByID returns the node with the given document-order ID, or nil.
// It is O(n); callers that need many lookups should build an index
// with IndexByID.
func (d *Document) NodeByID(id int) *Node {
	var found *Node
	d.Root.Walk(func(n *Node) bool {
		if found != nil {
			return false
		}
		if n.ID == id {
			found = n
			return false
		}
		return true
	})
	return found
}

// IndexByID returns a map from node ID to node over the whole document.
func (d *Document) IndexByID() map[int]*Node {
	idx := make(map[int]*Node)
	d.Root.Walk(func(n *Node) bool {
		idx[n.ID] = n
		return true
	})
	return idx
}

// ElementsByPath returns all elements whose AbsolutePath equals path,
// in document order.
func (d *Document) ElementsByPath(path string) []*Node {
	var out []*Node
	d.Root.Walk(func(n *Node) bool {
		if n.Kind == ElementNode && n.AbsolutePath() == path {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Stats summarizes a document; useful for logging and tests.
type Stats struct {
	Elements  int
	TextNodes int
	Attrs     int
	MaxDepth  int
}

// Stats computes summary statistics for the document.
func (d *Document) Stats() Stats {
	var s Stats
	d.Root.Walk(func(n *Node) bool {
		switch n.Kind {
		case ElementNode:
			s.Elements++
			s.Attrs += len(n.Attrs)
		case TextNode:
			s.TextNodes++
		}
		if dep := n.Depth(); dep > s.MaxDepth {
			s.MaxDepth = dep
		}
		return true
	})
	return s
}

// SortChildrenBy reorders n's element children according to less,
// keeping text children in place relative to each other is not
// meaningful for SXNM data, so all children are sorted together with
// text nodes ordered before elements when compared by less on elements
// only. In practice the generators call this on element-only parents.
func (n *Node) SortChildrenBy(less func(a, b *Node) bool) {
	sort.SliceStable(n.Children, func(i, j int) bool {
		return less(n.Children[i], n.Children[j])
	})
}
