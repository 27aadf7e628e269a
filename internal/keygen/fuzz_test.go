package keygen

import (
	"strings"
	"testing"

	"repro/internal/similarity"
	"repro/internal/strutil"
)

// referenceApply is the straightforward reading of a pattern: extract
// every member of each class from the normalized value, then pick the
// token positions. Apply must match it byte for byte.
func referenceApply(p Pattern, value string) string {
	norm := strutil.Normalize(value)
	var b strings.Builder
	for _, t := range p.Tokens {
		if t.Class == SoundexCode {
			b.WriteString(similarity.Soundex(norm))
			continue
		}
		chars := strutil.Extract(norm, t.Class.member)
		for pos := t.From; pos <= t.To; pos++ {
			if pos-1 < len(chars) {
				b.WriteRune(chars[pos-1])
			}
		}
	}
	return b.String()
}

// FuzzCompilePattern checks the key pattern compiler never panics and
// that accepted patterns apply safely to arbitrary values, exactly as
// referenceApply reads them.
func FuzzCompilePattern(f *testing.F) {
	f.Add("K1-K5", "The Matrix")
	f.Add("D3,D4", "1998")
	f.Add("C1,C2", "")
	f.Add("S", "Robert")
	f.Add("K1-5,S,D1", "mixed 123 value")
	f.Add("", "x")
	f.Add("Z9", "x")
	f.Add("K1-", "x")
	f.Add("C30-C40,K2", strings.Repeat("Ab1 ", 20))
	f.Add("D1,C1-C3", "ẞtraße 12")
	f.Fuzz(func(t *testing.T, pattern, value string) {
		p, err := Compile(pattern)
		if err != nil {
			return
		}
		out := p.Apply(value)
		if len([]rune(out)) > p.MaxLen() {
			t.Fatalf("Apply(%q, %q) = %q longer than MaxLen %d", pattern, value, out, p.MaxLen())
		}
		if want := referenceApply(p, value); out != want {
			t.Fatalf("Apply(%q, %q) = %q, reference gives %q", pattern, value, out, want)
		}
	})
}
