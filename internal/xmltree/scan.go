package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/runlimit"
)

// TokenKind identifies the token a Scanner yielded.
type TokenKind uint8

const (
	// StartToken is an element start tag (an empty-element tag <a/>
	// yields a StartToken followed by an EndToken).
	StartToken TokenKind = iota + 1
	// EndToken closes the innermost open element.
	EndToken
	// TextToken is one significant (non-whitespace) run of character
	// data or one CDATA section, entity references decoded.
	TextToken
)

// SyntaxError reports input that is not a well-formed document of the
// accepted XML subset (see Scanner).
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("XML syntax error on line %d: %s", e.Line, e.Msg)
}

// ScanAttr is one attribute of the current start tag. Name is the
// interned local name; Value is the decoded value and, like every view
// a Scanner returns, stays valid only until the next call to Next.
type ScanAttr struct {
	Name  string
	Value []byte
}

// Scanner is a zero-copy pull tokenizer over a single XML document,
// the one front end behind both ParseWithLimits and streaming key
// generation. It reads through a refillable buffer and yields start,
// end and text tokens as views into that buffer; tag and attribute
// names are interned, so repeated names cost no allocation.
//
// It accepts the XML subset SXNM needs and enforces well-formedness on
// it: matching end tags; only the five predefined entities and
// character references (DOCTYPE declarations are skipped, never
// expanded, so an entity they declare is an error where it is used);
// UTF-8 input of XML Chars only (an encoding declaration other than
// UTF-8 and an XML version other than 1.0 are rejected); exactly one
// root element, with no non-whitespace text after it (text before it
// is ignored, as encoding/xml-based parsing did). Namespaces are
// flattened to local names and namespace declarations dropped.
// Comments and processing instructions are skipped, and
// whitespace-only character data is dropped.
//
// The scanner also numbers nodes the way the document model does —
// elements and significant text nodes in document order from 1, text
// that continues a preceding text sibling (across a comment, say)
// being merged into it — and enforces lim.MaxDepth and lim.MaxNodes on
// that numbering with typed *runlimit.LimitError results.
//
// Every document the scanner accepts is accepted by encoding/xml in
// strict mode and decodes to the same tree (FuzzParse checks this
// against a reference builder). It accepts every such document too,
// with one exception:
//
//   - A prefixed name whose local part is not itself an XML Name, such
//     as <p:0/> or <a p:-x="1"/>, is rejected. encoding/xml accepts it
//     and flattening would leave a name ("0") that no XML document can
//     carry, so the tree could not be written back out.
type Scanner struct {
	r    io.Reader
	buf  []byte
	pos  int // start of the unconsumed input in buf
	end  int // buf[pos:end] is read but unconsumed
	eof  bool
	line int // newlines consumed before buf[0]
	err  error

	lim     runlimit.Limits
	names   map[string]*qname
	open    []*qname
	ns      []nsBinding
	nodes   int
	sawRoot bool
	// lastText reports whether the last child of the current element
	// is a text node, so the next text token merges into it.
	lastText bool

	name       *qname
	id         int
	merge      bool
	text       []byte
	attrs      []ScanAttr
	rawAttrs   []rawAttr
	scratch    []byte
	pendingEnd bool
}

// qname is an interned element or attribute name: the raw qualified
// name and its namespace split.
type qname struct {
	raw, prefix, local string
	colons             int
}

// rawAttr records one attribute while its start tag is scanned.
type rawAttr struct {
	name  *qname
	value span
}

// nsBinding is an in-scope xmlns:prefix declaration; only the value
// matters, for the one case where it changes which attributes are
// namespace declarations.
type nsBinding struct {
	prefix, value string
	depth         int
}

const (
	scanBufSize = 64 << 10
	// maxInterned bounds the intern table, so a document of endless
	// distinct names cannot grow it beyond a fixed size; names past it
	// are allocated per use.
	maxInterned = 4096
)

// invalidLocalNameMsg starts the error message for a prefixed name whose
// local part is not a Name, the one input class the scanner rejects
// but encoding/xml accepts (see Scanner).
const invalidLocalNameMsg = "invalid local name in qualified name: "

// errShort means the token under the cursor runs past the buffered
// input; the scanner reads more and rescans it.
var errShort = errors.New("xmltree: short buffer")

// NewScanner returns a scanner reading one document from r under lim.
// Only lim.MaxDepth and lim.MaxNodes apply to scanning.
func NewScanner(r io.Reader, lim runlimit.Limits) *Scanner {
	size := scanBufSize
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < size {
		size = l.Len() + 1
	}
	return newScanner(r, lim, size)
}

func newScanner(r io.Reader, lim runlimit.Limits, bufSize int) *Scanner {
	return &Scanner{r: r, buf: make([]byte, bufSize), lim: lim, names: make(map[string]*qname)}
}

// Name returns the local name of the current start or end tag.
func (s *Scanner) Name() string { return s.name.local }

// Attrs returns the current start tag's attributes, namespace
// declarations removed, in document order.
func (s *Scanner) Attrs() []ScanAttr { return s.attrs }

// Text returns the decoded character data of the current text token.
func (s *Scanner) Text() []byte { return s.text }

// Merge reports whether the current text token continues the text
// node before it (they were separated only by comments, processing
// instructions or whitespace), in which case it has no ID of its own.
func (s *Scanner) Merge() bool { return s.merge }

// ID returns the document-order node ID of the current start tag or
// unmerged text token.
func (s *Scanner) ID() int { return s.id }

// Next advances to the next token. It returns io.EOF once the root
// element has closed and the input is exhausted; any other error is a
// *SyntaxError, a *runlimit.LimitError or a read error, and repeats on
// every later call.
func (s *Scanner) Next() (TokenKind, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.pendingEnd {
		s.pendingEnd = false
		s.closeElement()
		return EndToken, nil
	}
	for {
		if s.pos >= s.end {
			if s.eof {
				return 0, s.fail(s.atEOF())
			}
			if err := s.fill(); err != nil {
				return 0, s.fail(err)
			}
			continue
		}
		kind, err := s.scan()
		if err == errShort {
			if err = s.fill(); err == nil {
				continue
			}
		}
		if err != nil {
			return 0, s.fail(err)
		}
		if kind != 0 {
			return kind, nil
		}
	}
}

func (s *Scanner) fail(err error) error {
	s.err = err
	return err
}

func (s *Scanner) atEOF() error {
	if len(s.open) > 0 {
		return s.syntaxError(s.end, "unexpected EOF")
	}
	if !s.sawRoot {
		return s.syntaxError(s.end, "empty document")
	}
	return io.EOF
}

// fill moves the unconsumed input to the front of the buffer, grows
// the buffer when the pending token fills it, and reads until the
// buffer is full or the input ends, so a token spanning many refills
// is rescanned only a logarithmic number of times.
func (s *Scanner) fill() error {
	if s.pos > 0 {
		s.line += bytes.Count(s.buf[:s.pos], []byte{'\n'})
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	if s.end == len(s.buf) {
		nb := make([]byte, 2*len(s.buf)+512)
		copy(nb, s.buf[:s.end])
		s.buf = nb
	}
	for empty := 0; s.end < len(s.buf); {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err == io.EOF {
			s.eof = true
			return nil
		}
		if err != nil {
			return err
		}
		if n > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			return io.ErrNoProgress
		}
	}
	return nil
}

func (s *Scanner) syntaxError(at int, msg string) error {
	if at > s.end {
		at = s.end
	}
	return &SyntaxError{Line: s.line + 1 + bytes.Count(s.buf[:at], []byte{'\n'}), Msg: msg}
}

// need reports whether buf[i] is available: errShort when more input
// may follow, an unexpected-EOF error when it cannot.
func (s *Scanner) need(i int) error {
	if i < s.end {
		return nil
	}
	if !s.eof {
		return errShort
	}
	return s.syntaxError(i, "unexpected EOF")
}

// scan consumes one construct at s.pos. It returns the token kind for
// a yielded token and 0 for skipped input (comments, processing
// instructions, declarations, whitespace-only text). On errShort
// nothing has been consumed.
func (s *Scanner) scan() (TokenKind, error) {
	i := s.pos
	if s.buf[i] != '<' {
		return s.scanCharData(i, false)
	}
	if err := s.need(i + 1); err != nil {
		return 0, err
	}
	switch s.buf[i+1] {
	case '/':
		return s.scanEnd(i + 2)
	case '?':
		return 0, s.scanPI(i + 2)
	case '!':
		return s.scanBang(i + 2)
	}
	return s.scanStart(i + 1)
}

// scanName returns the end of the name starting at i: the run of
// ASCII name bytes and non-ASCII bytes, validated by the caller.
func (s *Scanner) scanName(i int) (int, error) {
	for i < s.end && nameBytes[s.buf[i]] {
		i++
	}
	if err := s.need(i); err != nil {
		return 0, err
	}
	return i, nil
}

// nameBytes marks the bytes a name's scan runs over: ASCII name
// characters and every non-ASCII byte (validated by isName).
var nameBytes = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c >= utf8.RuneSelf || isNameByte(byte(c))
	}
	return t
}()

// Character-data byte classes for the fast path of scanCharData.
const (
	textOrdinary = iota // ASCII that is neither space nor special
	textSpace           // '\t', '\n', ' '
	textSpecial         // markup, '&', '\r', ']', '>', quotes, controls, non-ASCII
)

var textClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c == '\t' || c == '\n' || c == ' ':
			t[c] = textSpace
		case c < 0x20 || c >= utf8.RuneSelf || c == '<' || c == '&' || c == ']' || c == '>' ||
			c == '"' || c == '\'':
			t[c] = textSpecial
		default:
			t[c] = textOrdinary
		}
	}
	return t
}()

func (s *Scanner) skipSpace(i int) (int, error) {
	for {
		if err := s.need(i); err != nil {
			return 0, err
		}
		switch s.buf[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i, nil
		}
	}
}

// qualifiedName scans and interns the tag or attribute name at i; what
// names the construct for the error when no name is there.
func (s *Scanner) qualifiedName(i int, what string) (*qname, int, error) {
	j, err := s.scanName(i)
	if err != nil {
		return nil, 0, err
	}
	if j == i {
		return nil, 0, s.syntaxError(i, "expected "+what)
	}
	b := s.buf[i:j]
	q := s.names[string(b)]
	if q == nil {
		if !isName(b) {
			return nil, 0, s.syntaxError(i, "invalid XML name: "+string(b))
		}
		q = newQName(string(b))
		if q.prefix != "" && !isName([]byte(q.local)) {
			return nil, 0, s.syntaxError(i, invalidLocalNameMsg+string(b))
		}
		if len(s.names) < maxInterned {
			s.names[q.raw] = q
		}
	}
	if q.colons > 1 {
		return nil, 0, s.syntaxError(i, "expected "+what)
	}
	return q, j, nil
}

func newQName(raw string) *qname {
	q := &qname{raw: raw, local: raw, colons: strings.Count(raw, ":")}
	if k := strings.IndexByte(raw, ':'); q.colons == 1 && k > 0 && k < len(raw)-1 {
		q.prefix, q.local = raw[:k], raw[k+1:]
	}
	return q
}

func (s *Scanner) scanStart(i int) (TokenKind, error) {
	q, j, err := s.qualifiedName(i, "element name after <")
	if err != nil {
		return 0, err
	}
	s.scratch = s.scratch[:0]
	s.rawAttrs = s.rawAttrs[:0]
	empty := false
	for {
		if j, err = s.skipSpace(j); err != nil {
			return 0, err
		}
		c := s.buf[j]
		if c == '/' {
			if err := s.need(j + 1); err != nil {
				return 0, err
			}
			if s.buf[j+1] != '>' {
				return 0, s.syntaxError(j, "expected /> in element")
			}
			j += 2
			empty = true
			break
		}
		if c == '>' {
			j++
			break
		}
		a, k, err := s.qualifiedName(j, "attribute name in element")
		if err != nil {
			return 0, err
		}
		if k, err = s.skipSpace(k); err != nil {
			return 0, err
		}
		if s.buf[k] != '=' {
			return 0, s.syntaxError(k, "attribute name without = in element")
		}
		if k, err = s.skipSpace(k + 1); err != nil {
			return 0, err
		}
		quote := s.buf[k]
		if quote != '"' && quote != '\'' {
			return 0, s.syntaxError(k, "unquoted or missing attribute value in element")
		}
		v, next, _, err := s.charRun(k+1, runQuote, quote)
		if err != nil {
			return 0, err
		}
		s.rawAttrs = append(s.rawAttrs, rawAttr{name: a, value: v})
		j = next
	}

	depth := len(s.open) + 1
	if s.lim.MaxDepth > 0 && depth > s.lim.MaxDepth {
		return 0, &runlimit.LimitError{Limit: "max-depth", Max: s.lim.MaxDepth, Observed: depth}
	}
	if err := s.countNode(); err != nil {
		return 0, err
	}
	if depth == 1 {
		if s.sawRoot {
			return 0, s.syntaxError(s.pos, "multiple root elements")
		}
		s.sawRoot = true
	}
	s.pos = j
	s.open = append(s.open, q)
	s.name = q
	s.id = s.nodes
	s.lastText = false
	s.pendingEnd = empty
	s.bindNamespaces(depth)
	s.attrs = s.attrs[:0]
	for _, ra := range s.rawAttrs {
		if s.isNamespaceDecl(ra.name) {
			continue
		}
		s.attrs = append(s.attrs, ScanAttr{Name: ra.name.local, Value: s.bytesOf(ra.value)})
	}
	return StartToken, nil
}

// bindNamespaces records the element's xmlns:p declarations.
func (s *Scanner) bindNamespaces(depth int) {
	for _, ra := range s.rawAttrs {
		if ra.name.prefix != "xmlns" {
			continue
		}
		s.ns = append(s.ns, nsBinding{prefix: ra.name.local, value: string(s.bytesOf(ra.value)), depth: depth})
	}
}

// isNamespaceDecl reports whether an attribute is dropped as a
// namespace declaration: xmlns itself, any xmlns:p, and — because the
// flattening resolves prefixes the way encoding/xml does — an
// attribute whose prefix is bound to the namespace name "xmlns".
func (s *Scanner) isNamespaceDecl(a *qname) bool {
	if a.local == "xmlns" || a.prefix == "xmlns" {
		return true
	}
	if a.prefix == "" || a.prefix == "xml" {
		return false
	}
	for k := len(s.ns) - 1; k >= 0; k-- {
		if s.ns[k].prefix == a.prefix {
			return s.ns[k].value == "xmlns"
		}
	}
	return false
}

func (s *Scanner) countNode() error {
	s.nodes++
	if s.lim.MaxNodes > 0 && s.nodes > s.lim.MaxNodes {
		return &runlimit.LimitError{Limit: "max-nodes", Max: s.lim.MaxNodes, Observed: s.nodes}
	}
	return nil
}

// closeElement pops the innermost open element and the namespace
// bindings it declared.
func (s *Scanner) closeElement() {
	s.name = s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	for len(s.ns) > 0 && s.ns[len(s.ns)-1].depth > len(s.open) {
		s.ns = s.ns[:len(s.ns)-1]
	}
	s.lastText = false
}

func (s *Scanner) scanEnd(i int) (TokenKind, error) {
	// Almost every end tag names the innermost open element: compare
	// against it before looking the name up.
	j, err := s.scanName(i)
	if err != nil {
		return 0, err
	}
	var q *qname
	if n := len(s.open); n > 0 && string(s.buf[i:j]) == s.open[n-1].raw {
		q = s.open[n-1]
	} else if q, j, err = s.qualifiedName(i, "element name after </"); err != nil {
		return 0, err
	}
	if j, err = s.skipSpace(j); err != nil {
		return 0, err
	}
	if s.buf[j] != '>' {
		return 0, s.syntaxError(j, "invalid characters between </"+q.local+" and >")
	}
	if len(s.open) == 0 {
		return 0, s.syntaxError(i, "unexpected end element </"+q.local+">")
	}
	if top := s.open[len(s.open)-1]; top != q && top.raw != q.raw {
		return 0, s.syntaxError(i, "element <"+top.raw+"> closed by </"+q.raw+">")
	}
	s.pos = j + 1
	s.closeElement()
	return EndToken, nil
}

// scanPI skips a processing instruction, checking the version and
// encoding of an <?xml ...?> declaration.
func (s *Scanner) scanPI(i int) error {
	j, err := s.scanName(i)
	if err != nil {
		return err
	}
	target := s.buf[i:j]
	if j == i {
		return s.syntaxError(i, "expected target name after <?")
	}
	if !isName(target) {
		return s.syntaxError(i, "invalid XML name: "+string(target))
	}
	if j, err = s.skipSpace(j); err != nil {
		return err
	}
	data := j
	var b0 byte
	for {
		if err := s.need(j); err != nil {
			return err
		}
		b := s.buf[j]
		j++
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if string(target) == "xml" {
		content := string(s.buf[data : j-2])
		if ver := procInst("version", content); ver != "" && ver != "1.0" {
			return s.syntaxError(i, fmt.Sprintf("unsupported version %q; only version 1.0 is supported", ver))
		}
		if enc := procInst("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return s.syntaxError(i, fmt.Sprintf("encoding %q declared; only UTF-8 input is supported", enc))
		}
	}
	s.pos = j
	return nil
}

// procInst returns the value of param in a processing instruction's
// pseudo-attributes, with encoding/xml's lenient matching.
func procInst(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// scanBang handles everything after "<!": comments, CDATA sections and
// declarations such as DOCTYPE.
func (s *Scanner) scanBang(i int) (TokenKind, error) {
	if err := s.need(i); err != nil {
		return 0, err
	}
	switch s.buf[i] {
	case '-':
		if err := s.need(i + 1); err != nil {
			return 0, err
		}
		if s.buf[i+1] != '-' {
			return 0, s.syntaxError(i, "invalid sequence <!- not part of <!--")
		}
		j := i + 2
		var b0, b1 byte
		for {
			if err := s.need(j); err != nil {
				return 0, err
			}
			b := s.buf[j]
			j++
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return 0, s.syntaxError(j, `invalid sequence "--" not allowed in comments`)
				}
				break
			}
			b0, b1 = b1, b
		}
		s.pos = j
		return 0, nil
	case '[':
		for k := 0; k < 6; k++ {
			if err := s.need(i + 1 + k); err != nil {
				return 0, err
			}
			if s.buf[i+1+k] != "CDATA["[k] {
				return 0, s.syntaxError(i, "invalid <![ sequence")
			}
		}
		return s.scanCharData(i+7, true)
	}
	return 0, s.skipDecl(i + 1)
}

// skipDecl skips a declaration such as <!DOCTYPE ...> whose first byte
// after "<!" has been consumed: quoted text and bracketed markup nest,
// and comments inside are skipped. Nothing it declares takes effect.
func (s *Scanner) skipDecl(j int) error {
	var inquote byte
	depth := 0
	for {
		if err := s.need(j); err != nil {
			return err
		}
		b := s.buf[j]
		j++
		if inquote == 0 && b == '>' && depth == 0 {
			break
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for k := 0; k < 3; k++ {
				if err := s.need(j); err != nil {
					return err
				}
				b = s.buf[j]
				j++
				if b != "!--"[k] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if err := s.need(j); err != nil {
					return err
				}
				b = s.buf[j]
				j++
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
	s.pos = j
	return nil
}

// Run kinds: what ends a run of character data.
const (
	runText  = iota // before '<', or at the end of the input
	runCDATA        // after "]]>", which is not part of the run
	runQuote        // after the closing quote of an attribute value
)

// span locates decoded character data: buf[lo:hi], or scratch[lo:hi]
// when decoding had to rewrite it.
type span struct {
	lo, hi    int
	inScratch bool
}

func (s *Scanner) bytesOf(sp span) []byte {
	if sp.inScratch {
		return s.scratch[sp.lo:sp.hi]
	}
	return s.buf[sp.lo:sp.hi]
}

// charRun validates and decodes the character data starting at i, up
// to the end its kind sets (quote is the closing quote of a runQuote).
// It returns the decoded span, the index after the run's terminator,
// and whether the decoded data is all whitespace. Entity and character
// references are decoded outside CDATA; "\r\n" and "\r" become "\n";
// a run that needs either is rewritten after the current end of
// scratch, otherwise it is a view of buf.
func (s *Scanner) charRun(i, kind int, quote byte) (span, int, bool, error) {
	start, lo := i, len(s.scratch)
	decoded, blank := false, true
	// rewrite switches the run to scratch, copying the bytes so far.
	rewrite := func() {
		if !decoded {
			s.scratch = append(s.scratch, s.buf[start:i]...)
			decoded = true
		}
	}
	var b0, b1 byte // the two previous raw bytes
	for {
		if i >= s.end {
			if !s.eof {
				return span{}, 0, false, errShort
			}
			if kind == runText {
				break
			}
			if kind == runCDATA {
				return span{}, 0, false, s.syntaxError(i, "unexpected EOF in CDATA section")
			}
			return span{}, 0, false, s.need(i)
		}
		if !decoded {
			// Fast path: a run of plain ASCII needs no decoding and
			// cannot end the data, so only its blankness is tracked. It
			// holds no ']' or '\r', which is all b0 and b1 are
			// consulted for.
			j, space := i, uint8(textSpace)
			for j < s.end {
				k := textClass[s.buf[j]]
				if k == textSpecial {
					break
				}
				space &= k
				j++
			}
			if j > i {
				blank = blank && space == textSpace
				if j-i == 1 {
					b0, b1 = b1, 0
				} else {
					b0, b1 = 0, 0
				}
				i = j
				continue
			}
		}
		c := s.buf[i]
		if kind != runQuote && b0 == ']' && b1 == ']' && c == '>' {
			if kind == runText {
				return span{}, 0, false, s.syntaxError(i, "unescaped ]]> not in CDATA section")
			}
			i++
			break
		}
		if kind == runQuote && c == quote {
			i++
			break
		}
		if c == '<' && kind != runCDATA {
			if kind == runQuote {
				return span{}, 0, false, s.syntaxError(i, "unescaped < inside quoted string")
			}
			break
		}
		if c == '&' && kind != runCDATA {
			rewrite()
			r, n, err := s.entity(i)
			if err != nil {
				return span{}, 0, false, err
			}
			if !isXMLChar(r) {
				return span{}, 0, false, s.syntaxError(i, fmt.Sprintf("illegal character code %U", r))
			}
			blank = blank && unicode.IsSpace(r)
			s.scratch = utf8.AppendRune(s.scratch, r)
			i += n
			b0, b1 = 0, 0
			continue
		}
		n := 1
		if c < utf8.RuneSelf {
			switch {
			case c == '\r':
				rewrite()
				s.scratch = append(s.scratch, '\n')
			case c == '\n' && b1 == '\r':
				// \r\n was already written as \n.
			default:
				if c < 0x20 && c != '\t' && c != '\n' {
					return span{}, 0, false, s.syntaxError(i, fmt.Sprintf("illegal character code %U", rune(c)))
				}
				if decoded {
					s.scratch = append(s.scratch, c)
				}
			}
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				blank = false
			}
		} else {
			if !utf8.FullRune(s.buf[i:s.end]) && !s.eof {
				return span{}, 0, false, errShort
			}
			var r rune
			r, n = utf8.DecodeRune(s.buf[i:s.end])
			if r == utf8.RuneError && n == 1 {
				return span{}, 0, false, s.syntaxError(i, "invalid UTF-8")
			}
			if !isXMLChar(r) {
				return span{}, 0, false, s.syntaxError(i, fmt.Sprintf("illegal character code %U", r))
			}
			blank = blank && unicode.IsSpace(r)
			if decoded {
				s.scratch = append(s.scratch, s.buf[i:i+n]...)
			}
		}
		i += n
		b0, b1 = b1, s.buf[i-1]
	}
	sp := span{lo: start, hi: i}
	if decoded {
		sp = span{lo: lo, hi: len(s.scratch), inScratch: true}
	}
	switch {
	case kind == runQuote:
		if !decoded {
			sp.hi-- // the closing quote
		}
	case kind == runCDATA:
		// Drop the "]]>" terminator; decoding stopped before its '>'.
		if decoded {
			sp.hi -= 2
		} else {
			sp.hi -= 3
		}
		blank = len(bytes.TrimSpace(s.bytesOf(sp))) == 0
	}
	return sp, i, blank, nil
}

// scanCharData scans character data (or, with cdata, a CDATA section's
// content) from i and turns it into a text token or skips it.
func (s *Scanner) scanCharData(i int, cdata bool) (TokenKind, error) {
	kind := runText
	if cdata {
		kind = runCDATA
	}
	s.scratch = s.scratch[:0]
	sp, next, blank, err := s.charRun(i, kind, 0)
	if err != nil {
		return 0, err
	}
	s.pos = next
	if blank {
		return 0, nil
	}
	if len(s.open) == 0 {
		if s.sawRoot {
			return 0, s.syntaxError(i, "non-whitespace content after root element")
		}
		return 0, nil
	}
	s.text = s.bytesOf(sp)
	s.merge = s.lastText
	if !s.merge {
		if err := s.countNode(); err != nil {
			return 0, err
		}
		s.id = s.nodes
	}
	s.lastText = true
	return TextToken, nil
}

// entity decodes the reference starting at buf[i] == '&': one of the
// five predefined entities or a character reference. It returns the
// rune and the reference's length in bytes.
func (s *Scanner) entity(i int) (rune, int, error) {
	j := i + 1
	if err := s.need(j); err != nil {
		return 0, 0, err
	}
	if s.buf[j] == '#' {
		j++
		if err := s.need(j); err != nil {
			return 0, 0, err
		}
		base := uint64(10)
		if s.buf[j] == 'x' {
			base = 16
			j++
		}
		digits := j
		var v uint64
		for {
			if err := s.need(j); err != nil {
				return 0, 0, err
			}
			d := digitVal(s.buf[j], base)
			if d < 0 {
				break
			}
			if v <= unicode.MaxRune {
				v = v*base + uint64(d)
			}
			j++
		}
		if s.buf[j] != ';' || j == digits || v > unicode.MaxRune {
			return 0, 0, s.badEntity(i, j)
		}
		r := rune(v)
		if !utf8.ValidRune(r) {
			// A surrogate code point decodes as U+FFFD, as a Go string
			// conversion of the code point does.
			r = utf8.RuneError
		}
		return r, j + 1 - i, nil
	}
	for {
		if err := s.need(j); err != nil {
			return 0, 0, err
		}
		if c := s.buf[j]; c < utf8.RuneSelf && !isNameByte(c) {
			break
		}
		j++
	}
	if s.buf[j] == ';' {
		var r rune
		switch string(s.buf[i+1 : j]) {
		case "lt":
			r = '<'
		case "gt":
			r = '>'
		case "amp":
			r = '&'
		case "apos":
			r = '\''
		case "quot":
			r = '"'
		}
		if r != 0 {
			return r, j + 1 - i, nil
		}
	}
	return 0, 0, s.badEntity(i, j)
}

func (s *Scanner) badEntity(i, j int) error {
	ent := string(s.buf[i:j])
	if s.buf[j] == ';' {
		ent += ";"
	} else {
		ent += " (no semicolon)"
	}
	return s.syntaxError(i, "invalid character entity "+ent)
}

func digitVal(c byte, base uint64) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// isXMLChar reports whether r is in the XML 1.0 Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
