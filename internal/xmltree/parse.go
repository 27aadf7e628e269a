package xmltree

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/runlimit"
)

// Parse reads an XML document from r into a Document. Namespaces are
// flattened to local names; comments, processing instructions, and
// declarations are dropped; pure-whitespace text is discarded and text
// split only by comments or processing instructions is merged.
// Non-whitespace text after the root element and a second root element
// are rejected. Node IDs are assigned in document order starting at 1.
// The accepted input is the XML subset the Scanner documents.
func Parse(r io.Reader) (*Document, error) {
	return ParseWithLimits(r, runlimit.Limits{})
}

// ParseWithLimits is Parse with resource ceilings enforced during the
// token scan: lim.MaxDepth caps element nesting (root = depth 1) and
// lim.MaxNodes caps the document-order node count (elements plus
// significant text nodes). A breach aborts the parse with a
// *runlimit.LimitError, so hostile or runaway documents fail fast
// instead of exhausting memory. Zero limits parse unbounded.
func ParseWithLimits(r io.Reader, lim runlimit.Limits) (*Document, error) {
	return build(NewScanner(r, lim))
}

func build(s *Scanner) (*Document, error) {
	var b builder
	var root *Node
	for {
		kind, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch kind {
		case StartToken:
			if e := b.Start(s); root == nil {
				root = e
			}
		case EndToken:
			b.End()
		case TextToken:
			b.Text(s)
		}
	}
	// The scanner numbered the nodes exactly as Renumber would.
	return &Document{Root: root}, nil
}

// builder appends Scanner tokens to a node tree. Elements take their
// IDs from the scanner, and text the scanner marks as merged extends
// the preceding text node (collected in one buffer, so a text node
// split into many pieces costs linear time).
//
// Nodes, child lists and attribute lists are carved out of shared
// slabs, so building a tree costs a few allocations per hundred nodes
// rather than several per node. Every list is capped at its carved
// capacity: appending past it (AppendChild, SetAttr) reallocates as
// usual, so lists never overlap. Slabs grow from slabMin to slabMax,
// so a small tree allocates little.
type builder struct {
	cur      *Node
	text     *Node  // the current element's trailing text node
	textBuf  []byte // pending merged content of text
	slab     int    // size of the next node slab
	nodes    []Node
	children []*Node
	attrs    []Attr
}

const (
	slabMin = 16
	slabMax = 256
)

func (b *builder) node() *Node {
	if len(b.nodes) == 0 {
		b.nodes = make([]Node, b.slab)
		b.slab = min(2*b.slab, slabMax)
	}
	n := &b.nodes[0]
	b.nodes = b.nodes[1:]
	return n
}

// appendChild appends c to the current element's children, moving a
// full child list to a slab region of twice its capacity.
func (b *builder) appendChild(c *Node) {
	c.Parent = b.cur
	kids := b.cur.Children
	if len(kids) == cap(kids) {
		n := max(2*cap(kids), 4)
		if n > slabMax {
			b.cur.Children = append(kids, c)
			return
		}
		if len(b.children) < n {
			b.children = make([]*Node, 4*b.slab)
		}
		grown := b.children[:len(kids):n]
		b.children = b.children[n:]
		copy(grown, kids)
		kids = grown
	}
	b.cur.Children = append(kids, c)
}

// flush settles merged text into its node.
func (b *builder) flush() {
	if b.textBuf != nil {
		b.text.Data = string(b.textBuf)
		b.textBuf = nil
	}
	b.text = nil
}

// Start creates the element of the scanner's start token, appends it
// to the current element (if any) and makes it current.
func (b *builder) Start(s *Scanner) *Node {
	b.flush()
	if b.cur == nil {
		b.nodes, b.children, b.attrs, b.slab = nil, nil, nil, slabMin
	}
	e := b.node()
	e.Kind, e.Name, e.ID = ElementNode, s.Name(), s.ID()
	if attrs := s.Attrs(); len(attrs) > 0 {
		if len(b.attrs) < len(attrs) {
			b.attrs = make([]Attr, max(b.slab, len(attrs)))
		}
		e.Attrs = b.attrs[:len(attrs):len(attrs)]
		b.attrs = b.attrs[len(attrs):]
		for i, a := range attrs {
			e.Attrs[i] = Attr{Name: a.Name, Value: string(a.Value)}
		}
	}
	if b.cur != nil {
		b.appendChild(e)
	}
	b.cur = e
	return e
}

// End closes the current element and returns it; its parent becomes
// current.
func (b *builder) End() *Node {
	b.flush()
	e := b.cur
	b.cur = e.Parent
	return e
}

// Text appends the scanner's text token to the current element.
func (b *builder) Text(s *Scanner) {
	if s.Merge() && b.text != nil {
		if b.textBuf == nil {
			b.textBuf = append([]byte(nil), b.text.Data...)
		}
		b.textBuf = append(b.textBuf, s.Text()...)
		return
	}
	b.flush()
	t := b.node()
	t.Kind, t.Data, t.ID = TextNode, string(s.Text()), s.ID()
	b.appendChild(t)
	b.text = t
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// ParseFile parses the XML document stored at path.
func ParseFile(path string) (*Document, error) {
	return ParseFileWithLimits(path, runlimit.Limits{})
}

// ParseFileWithLimits parses the XML document stored at path with the
// resource ceilings of ParseWithLimits.
func ParseFileWithLimits(path string, lim runlimit.Limits) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xmltree: %w", err)
	}
	defer f.Close()
	return ParseWithLimits(f, lim)
}
