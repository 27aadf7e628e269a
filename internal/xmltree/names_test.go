package xmltree

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// TestNameTablesMatchOracle checks every BMP rune, and a sample of the
// supplementary planes (which hold no name characters), as the first
// and as a later character of an element name against the reference
// decoder.
func TestNameTablesMatchOracle(t *testing.T) {
	for r := rune(0x80); r <= 0x10FFFF; r++ {
		if r > 0xFFFF && r%251 != 0 {
			continue
		}
		if !utf8.ValidRune(r) {
			continue
		}
		c := string(r)
		for _, name := range []string{c, "a" + c} {
			_, werr := oracleParse(strings.NewReader("<" + name + "/>"))
			if got, want := isName([]byte(name)), werr == nil; got != want {
				t.Fatalf("isName(%q) = %v, oracle accepts = %v", name, got, want)
			}
		}
	}
}
