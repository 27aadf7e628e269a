package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/runlimit"
)

// oracleParse is the reference DOM builder: the encoding/xml-based
// parser the Scanner replaced, kept verbatim (limits aside) so the
// differential fuzz target can hold the scanner to its behavior.
func oracleParse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	dec.Strict = true

	var root *Node
	var cur *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			e := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				e.Attrs = append(e.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if cur == nil {
				if root != nil {
					return nil, errors.New("xmltree: parse: multiple root elements")
				}
				root = e
			} else {
				cur.AppendChild(e)
			}
			cur = e
		case xml.EndElement:
			if cur == nil {
				return nil, errors.New("xmltree: parse: unbalanced end element")
			}
			cur = cur.Parent
		case xml.CharData:
			s := string(t)
			if cur == nil {
				if root != nil && strings.TrimSpace(s) != "" {
					return nil, errors.New("xmltree: parse: non-whitespace content after root element")
				}
				continue
			}
			if strings.TrimSpace(s) == "" {
				continue
			}
			if k := len(cur.Children); k > 0 && cur.Children[k-1].Kind == TextNode {
				cur.Children[k-1].Data += s
				continue
			}
			cur.AppendChild(NewText(s))
		}
	}
	if root == nil {
		return nil, errors.New("xmltree: parse: empty document")
	}
	if cur != nil {
		return nil, errors.New("xmltree: parse: unexpected EOF inside element")
	}
	return NewDocument(root), nil
}

// diffTrees returns a description of the first difference between two
// trees — kind, name, text, attributes, ID, parent link or child
// count — or "" when they are identical.
func diffTrees(a, b *Node) string {
	if a.Kind != b.Kind || a.Name != b.Name || a.Data != b.Data || a.ID != b.ID {
		return fmt.Sprintf("node %d: {%v %q %q id=%d} vs {%v %q %q id=%d}",
			a.ID, a.Kind, a.Name, a.Data, a.ID, b.Kind, b.Name, b.Data, b.ID)
	}
	if len(a.Attrs) != len(b.Attrs) {
		return fmt.Sprintf("node %d: attrs %v vs %v", a.ID, a.Attrs, b.Attrs)
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return fmt.Sprintf("node %d: attrs %v vs %v", a.ID, a.Attrs, b.Attrs)
		}
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Sprintf("node %d: %d vs %d children", a.ID, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if a.Children[i].Parent != a || b.Children[i].Parent != b {
			return fmt.Sprintf("node %d: broken parent link", a.Children[i].ID)
		}
		if d := diffTrees(a.Children[i], b.Children[i]); d != "" {
			return d
		}
	}
	return ""
}

// checkAgainstOracle parses input with both parsers and fails when the
// scanner accepts what the oracle rejects, or when both accept and the
// trees differ. Inputs only the oracle accepts are returned as such.
func checkAgainstOracle(t *testing.T, input string) (oracleOnly bool) {
	t.Helper()
	want, werr := oracleParse(strings.NewReader(input))
	got, gerr := ParseString(input)
	switch {
	case werr != nil && gerr == nil:
		t.Fatalf("scanner accepted input the oracle rejects (%v): %q", werr, input)
	case werr == nil && gerr == nil:
		if d := diffTrees(want.Root, got.Root); d != "" {
			t.Fatalf("trees differ on %q: %s", input, d)
		}
	}
	// A one-byte buffer that refills on every read must not change the
	// outcome: every token is rescanned across refills.
	tiny, terr := build(newScanner(iotest.OneByteReader(strings.NewReader(input)), runlimit.Limits{}, 1))
	if (terr == nil) != (gerr == nil) {
		t.Fatalf("one-byte buffer changes the outcome on %q: %v vs %v", input, terr, gerr)
	}
	if terr == nil {
		if d := diffTrees(got.Root, tiny.Root); d != "" {
			t.Fatalf("one-byte buffer changes the tree on %q: %s", input, d)
		}
	}
	return werr == nil && gerr != nil
}
