package xmltree

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/runlimit"
)

// scannerEdgeCases are inputs at the corners of the accepted subset:
// entities and character references, CDATA, comments, declarations,
// namespace flattening, line-end normalization, names, and the
// document-level rules. Each must parse exactly as the reference
// oracle does (both reject, or both accept with identical trees).
var scannerEdgeCases = []string{
	"<a/>",
	"<a><b>text</b></a>",
	`<a x="1" y="&amp;"><!-- c --><b/>tail</a>`,
	"<a>&#9731;</a>",
	"<movie_database><movies><movie year=\"1999\"><title>Matrix</title></movie></movies></movie_database>",
	"<a><![CDATA[raw <stuff> here]]></a>",
	"",
	"<",
	"<a><b></a></b>",
	strings.Repeat("<d>", 50) + "x" + strings.Repeat("</d>", 50),
	// Text merging across comments, PIs and CDATA; whitespace pieces.
	"<a>x<!--c-->y<?pi z?>z</a>",
	"<a>x <!--c--> y</a>",
	"<a>x<!--c-->  <!--d-->y</a>",
	"<a>x<![CDATA[y]]>z<b/>w</a>",
	"<a><![CDATA[ ]]>x</a>",
	"<a><![CDATA[]]></a>",
	"<a><![CDATA[a]b]]c]]]></a>",
	"<a>\r\nx\ry\r\r\n</a>",
	"<a x='\r\n\t'/>",
	"<a><![CDATA[\r\n]]]]></a>",
	// Entities and character references.
	"<a>&lt;&gt;&amp;&apos;&quot;</a>",
	"<a>&#x41;&#65;&#x1F600;&#0000065;</a>",
	"<a>&#xD800;</a>",
	"<a>&#0;</a>", "<a>&#xFFFE;</a>", "<a>&#x110000;</a>", "<a>&#99999999999999999999999;</a>",
	"<a>&#X41;</a>", "<a>&#;</a>", "<a>&#x;</a>", "<a>&;</a>", "<a>&amp</a>", "<a>&foo;</a>",
	"<a>&#32;</a>", "<a>x&#32;</a>", "<a>&#160;</a>", "<a> </a>", "<a>　x</a>",
	"<a>]]></a>", "<a>]&#93;></a>", "<a x=']]>'/>",
	// Attributes.
	`<a x="1"y="2"/>`, `<a x = "1" />`, `<a x=1/>`, `<a x/>`, `<a x="<"/>`, `<a x="1" x="2"/>`,
	`<a x="&#9;&#10;&#13;"/>`, `<a/ >`, `<a / >`,
	// Namespaces.
	`<p:a xmlns:p="u" p:x="1" xmlns="d" y="2"><p:b/></p:a>`,
	`<a xmlns:p="xmlns" p:x="1"><b p:y="2" xmlns:p="other" /></a>`,
	`<a xmlns:p="xmlns"><b p:y="2"/><c xmlns:p="o"><d p:z="3"/></c></a>`,
	`<a xmlns:="1" :x="2" x:="3"/>`, `<a:b:c/>`, `<a x:y:z="1"/>`, `<:a></:a>`, `<a:></a:>`,
	`<p:a></q:a>`, `<p:a></a>`, `<xml:a xml:lang="en"/>`, `<a xmlns:xmlns="v" xmlns:x="1"/>`,
	// Names.
	"<1a/>", "<-a/>", "<a-1.b_c/>", "<é/>", "<aé/>", "<à/>", "<̀/>", "<a·/>",
	"<日本/>", "<a\U0001F600/>", "<a\xff/>", "< a/>", "<a></ a>", "<a></a >", "<a></a x>",
	// Prolog, declarations, PIs.
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version="1.0" encoding="utf-8"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<?xml encoding='latin1'?><a/>`,
	`<a/><?xml encoding="x"?>`,
	`<?xml-stylesheet href="x"?><a/>`,
	`<??><a/>`, `<?x?><a/>`, `<?x ?><a/>`, `<?x y`,
	`<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>`,
	`<!DOCTYPE a [<!ENTITY e "x">]><a/>`,
	`<!DOCTYPE a [<!-- > --><!ELEMENT a ANY>]><a/>`,
	`<!DOCTYPE a "'>"><a/>`, `<!DOCTYPE a [<<>]><a/>`, `<!><a/>`, `<!'>'><a/>`, `<!DOCTYPE a [<!-`,
	// Comments.
	"<a><!----></a>", "<a><!---></a>", "<a><!-- -- --></a>", "<a><!-- --->",
	"<a><!-x></a>", "<a><![CDAT[x]]></a>", "<!--\xff--><a/>",
	// Document level.
	"junk<a/>", "<a/>junk", "<a/>&#65;", "<a/>&#32;", "<a/><![CDATA[x]]>", "<a/><![CDATA[ ]]>",
	"<a/><b/>", "<a/></a>", "</a>", "  \n<a/>\n  ", "<a>", "<a><b>", "x", "<!-- only -->",
	// Character validity.
	"<a>\x00</a>", "<a>\x01</a>", "<a>\x7f</a>", "<a>\xc3</a>", "<a>\xc3\xa9</a>", "<a>\xed\xa0\x80</a>",
	"<a>￾</a>", "<a>\U0010FFFF</a>", "<a x='\x00'/>", "<a x='\xff'/>", "<a>\xc3",
}

// The one documented class of input the scanner rejects and the oracle
// accepts: a prefixed name whose local part is not a Name.
func TestScannerRejectsInvalidLocalName(t *testing.T) {
	for _, in := range []string{"<p:0/>", "<a p:-x='1'/>", "<p:a></p:a><!-- ok -->", "<a p:·=''/>"} {
		wantOK := in == "<p:a></p:a><!-- ok -->"
		if _, err := oracleParse(strings.NewReader(in)); err != nil {
			t.Fatalf("oracle rejects %q: %v", in, err)
		}
		_, err := ParseString(in)
		if wantOK != (err == nil) || !wantOK && !isInvalidLocalName(err) {
			t.Errorf("ParseString(%q) = %v", in, err)
		}
	}
}

func isInvalidLocalName(err error) bool {
	var se *SyntaxError
	return errors.As(err, &se) && strings.HasPrefix(se.Msg, invalidLocalNameMsg)
}

func parseErr(input string) error {
	_, err := ParseString(input)
	return err
}

func TestScannerMatchesOracle(t *testing.T) {
	for _, in := range scannerEdgeCases {
		if checkAgainstOracle(t, in) && !isInvalidLocalName(parseErr(in)) {
			t.Errorf("scanner rejects input the oracle accepts: %q", in)
		}
	}
}

// FuzzParse checks the scanner-based parser against the reference
// oracle (encoding/xml in strict mode): it must never accept input the
// oracle rejects, must build the identical tree — names, attributes,
// text and IDs — wherever both accept, and must never reject what the
// oracle accepts. Accepted documents must also survive a
// serialize→reparse round trip.
func FuzzParse(f *testing.F) {
	for _, s := range scannerEdgeCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if checkAgainstOracle(t, input) && !isInvalidLocalName(parseErr(input)) {
			t.Fatalf("scanner rejects input the oracle accepts: %q", input)
		}
		doc, err := ParseString(input)
		if err != nil {
			return
		}
		out := doc.String()
		doc2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse of serialized output failed: %v\ninput: %q\nout: %q", err, input, out)
		}
		if doc.Stats().Elements != doc2.Stats().Elements {
			t.Fatalf("element count changed in round trip: %d vs %d",
				doc.Stats().Elements, doc2.Stats().Elements)
		}
	})
}

// TestScannerRefillsMatchOracle parses a document far larger than the
// scanner's buffer, so tokens of every kind straddle refills, and
// requires the oracle's tree.
func TestScannerRefillsMatchOracle(t *testing.T) {
	var b strings.Builder
	b.WriteString("<?xml version=\"1.0\"?>\r\n<!DOCTYPE db [<!ENTITY x \"y\">]>\n<db xmlns:p=\"u\">")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "<movie p:year=\"%d\" id='m&amp;%d'>\r\n  <title>Tïtle №%d &lt;%d&gt;</title>", 1900+i%100, i, i, i%7)
		if i%3 == 0 {
			fmt.Fprintf(&b, "<!-- note %d --><plot><![CDATA[a <raw> ]] plot %d]]>more&#x263A;</plot>", i, i)
		}
		b.WriteString("<people><person>Ann</person>\t<person>Bo 🎬</person></people></movie>\n")
	}
	b.WriteString("</db>\n<!-- end -->")
	in := b.String()
	want, err := oracleParse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := build(newScanner(iotest.HalfReader(strings.NewReader(in)), runlimit.Limits{}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d := diffTrees(want.Root, got.Root); d != "" {
		t.Fatal(d)
	}
}
