package xmltree

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteOptions control serialization.
type WriteOptions struct {
	// Indent, when non-empty, pretty-prints with the given unit of
	// indentation. Elements with only text children stay on one line so
	// round-tripping does not introduce significant whitespace.
	Indent string
	// Header, when true, emits an XML declaration first.
	Header bool
}

// Write serializes the document to w.
func (d *Document) Write(w io.Writer, opts WriteOptions) error {
	bw := bufio.NewWriter(w)
	if opts.Header {
		if _, err := bw.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"); err != nil {
			return err
		}
	}
	if err := writeNode(bw, d.Root, opts.Indent, 0); err != nil {
		return err
	}
	if opts.Indent != "" {
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// String serializes the document with pretty-printing; intended for
// tests and debugging.
func (d *Document) String() string {
	var b strings.Builder
	_ = d.Write(&b, WriteOptions{Indent: "  "})
	return b.String()
}

// WriteFile serializes the document to the file at path.
func (d *Document) WriteFile(path string, opts WriteOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("xmltree: %w", err)
	}
	if err := d.Write(f, opts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// onlyTextChildren reports whether n has no element children.
func onlyTextChildren(n *Node) bool {
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			return false
		}
	}
	return true
}

func writeNode(w *bufio.Writer, n *Node, indent string, depth int) error {
	pad := ""
	if indent != "" {
		pad = strings.Repeat(indent, depth)
	}
	if n.Kind == TextNode {
		return escapeText(w, n.Data)
	}
	if _, err := w.WriteString(pad); err != nil {
		return err
	}
	if err := w.WriteByte('<'); err != nil {
		return err
	}
	if _, err := w.WriteString(n.Name); err != nil {
		return err
	}
	for _, a := range n.Attrs {
		if err := w.WriteByte(' '); err != nil {
			return err
		}
		if _, err := w.WriteString(a.Name); err != nil {
			return err
		}
		if _, err := w.WriteString(`="`); err != nil {
			return err
		}
		if err := EscapeAttr(w, a.Value); err != nil {
			return err
		}
		if err := w.WriteByte('"'); err != nil {
			return err
		}
	}
	if len(n.Children) == 0 {
		_, err := w.WriteString("/>")
		return err
	}
	if err := w.WriteByte('>'); err != nil {
		return err
	}
	inline := indent == "" || onlyTextChildren(n)
	for _, c := range n.Children {
		if !inline {
			if err := w.WriteByte('\n'); err != nil {
				return err
			}
		}
		childIndent := indent
		if inline {
			childIndent = ""
		}
		if err := writeNode(w, c, childIndent, depth+1); err != nil {
			return err
		}
	}
	if !inline {
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
		if _, err := w.WriteString(pad); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("</"); err != nil {
		return err
	}
	if _, err := w.WriteString(n.Name); err != nil {
		return err
	}
	return w.WriteByte('>')
}

func escapeText(w *bufio.Writer, s string) error {
	for _, r := range s {
		var rep string
		switch r {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		default:
			if _, err := w.WriteRune(r); err != nil {
				return err
			}
			continue
		}
		if _, err := w.WriteString(rep); err != nil {
			return err
		}
	}
	return nil
}

// EscapeAttr writes s as the serializer writes an attribute value
// between double quotes: markup characters, quotes, newlines and tabs
// escaped, everything else verbatim. Writers that stream XML without
// building a Document use it to produce the serializer's exact bytes.
func EscapeAttr(w *bufio.Writer, s string) error {
	for _, r := range s {
		var rep string
		switch r {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '"':
			rep = "&quot;"
		case '\n':
			rep = "&#10;"
		case '\t':
			rep = "&#9;"
		default:
			if _, err := w.WriteRune(r); err != nil {
				return err
			}
			continue
		}
		if _, err := w.WriteString(rep); err != nil {
			return err
		}
	}
	return nil
}

// Canonical makes the scanner write to w, token by token, the bytes
// Document.Write with zero WriteOptions writes for the tree the tokens
// build, so a document can be hashed in the pass that reads it instead
// of after building it. The caller flushes w once the scan is over.
func (s *Scanner) Canonical(w *bufio.Writer) { s.canon = w }

// writeCanonical writes one yielded token as writeNode does without
// indentation. A start tag stays open until the next token says
// whether the element has children ("/>" if not). Text and attribute
// values are escaped byte by byte, which for the valid UTF-8 the
// scanner yields is what the serializer's rune loop writes.
func (s *Scanner) writeCanonical(kind TokenKind) {
	w := s.canon
	switch kind {
	case StartToken:
		if s.canonOpen {
			w.WriteByte('>')
		}
		w.WriteByte('<')
		w.WriteString(s.name.local)
		for _, a := range s.attrs {
			w.WriteByte(' ')
			w.WriteString(a.Name)
			w.WriteString(`="`)
			escapeBytes(w, a.Value, true)
			w.WriteByte('"')
		}
		s.canonOpen = true
	case TextToken:
		if s.canonOpen {
			w.WriteByte('>')
			s.canonOpen = false
		}
		escapeBytes(w, s.text, false)
	case EndToken:
		if s.canonOpen {
			w.WriteString("/>")
			s.canonOpen = false
			return
		}
		w.WriteString("</")
		w.WriteString(s.name.local)
		w.WriteByte('>')
	}
}

// escapeBytes writes b with escapeText's replacements, or EscapeAttr's
// when attr is set.
func escapeBytes(w *bufio.Writer, b []byte, attr bool) {
	last := 0
	for i, c := range b {
		var rep string
		switch c {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '"':
			if attr {
				rep = "&quot;"
			}
		case '\n':
			if attr {
				rep = "&#10;"
			}
		case '\t':
			if attr {
				rep = "&#9;"
			}
		}
		if rep == "" {
			continue
		}
		w.Write(b[last:i])
		w.WriteString(rep)
		last = i + 1
	}
	w.Write(b[last:])
}
