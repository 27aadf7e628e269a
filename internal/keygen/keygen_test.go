package keygen

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCompileValid(t *testing.T) {
	valid := []string{
		"K1-K5",
		"D3,D4",
		"C1,C2",
		"K1,K2",
		"D1",
		"K1-5",
		"C1-C4",
		" K1 , K2 ",
		"K1-K2,D3,D4",
	}
	for _, expr := range valid {
		if _, err := Compile(expr); err != nil {
			t.Errorf("Compile(%q): %v", expr, err)
		}
	}
}

func TestCompileInvalid(t *testing.T) {
	invalid := []string{
		"",
		"   ",
		"X1",
		"K0",
		"K-1",
		"K",
		"K1-",
		"K5-K1",
		"K1,,K2",
		"K1-D5",
		"1K",
		"Ka",
	}
	for _, expr := range invalid {
		if _, err := Compile(expr); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", expr)
		}
	}
}

// The paper's running example (Sec. 2.2): first four consonants of
// "Mask of Zorro" + digits 3,4 of "1998" = MSKF98.
func TestPaperExampleMaskOfZorro(t *testing.T) {
	title := MustCompile("K1-K4").Apply("Mask of Zorro")
	year := MustCompile("D3,D4").Apply("1998")
	if got := title + year; got != "MSKF98" {
		t.Errorf("key = %q, want MSKF98", got)
	}
}

// The paper's Sec. 3.1 example: key definitions of Table 1 applied to
// the Matrix movie of Fig. 2(a) give MT99 and 5MA.
func TestPaperExampleMatrix(t *testing.T) {
	// Key 1: K1,K2 of title "Matrix" + D3,D4 of year "1999".
	k1 := Key{Parts: []Part{
		{PathID: 1, Order: 1, Pattern: MustCompile("K1,K2")},
		{PathID: 3, Order: 2, Pattern: MustCompile("D3,D4")},
	}}
	// Key 2: D1 of @ID "5632" + C1,C2 of title.
	k2 := Key{Parts: []Part{
		{PathID: 2, Order: 1, Pattern: MustCompile("D1")},
		{PathID: 1, Order: 2, Pattern: MustCompile("C1,C2")},
	}}
	lookup := func(pid int) string {
		switch pid {
		case 1:
			return "Matrix"
		case 2:
			return "5632"
		case 3:
			return "1999"
		}
		return ""
	}
	if got := k1.Generate(lookup); got != "MT99" {
		t.Errorf("key1 = %q, want MT99", got)
	}
	if got := k2.Generate(lookup); got != "5MA" {
		t.Errorf("key2 = %q, want 5MA", got)
	}
}

func TestApplyClasses(t *testing.T) {
	cases := []struct {
		pattern, value, want string
	}{
		{"K1-K5", "The Matrix", "THMTR"},
		{"C1-C4", "Mask of Zorro", "MASK"},
		{"D1,D2", "136", "13"},
		{"D3,D4", "19", ""},          // positions beyond data skipped
		{"K1-K5", "AEIOU", ""},       // no consonants at all
		{"C1,C2", "  a  b ", "AB"},   // whitespace ignored by C class
		{"K1,K2", "amélie", "ML"},    // folded + uppercased
		{"D1", "no digits here", ""}, // missing class members
		{"C1-C6", "ab", "AB"},        // short value
	}
	for _, c := range cases {
		if got := MustCompile(c.pattern).Apply(c.value); got != c.want {
			t.Errorf("Apply(%q, %q) = %q, want %q", c.pattern, c.value, got, c.want)
		}
	}
}

func TestApplyOrderAcrossTokens(t *testing.T) {
	// Tokens are emitted in pattern order even when positions overlap.
	if got := MustCompile("D3,D4,D1,D2").Apply("1998"); got != "9819" {
		t.Errorf("Apply = %q, want 9819", got)
	}
}

func TestMaxLen(t *testing.T) {
	if got := MustCompile("K1-K5,D3,D4").MaxLen(); got != 7 {
		t.Errorf("MaxLen = %d, want 7", got)
	}
}

func TestKeyPartsSortedByOrder(t *testing.T) {
	parts := []Part{
		{PathID: 1, Order: 2, Pattern: MustCompile("C1")},
		{PathID: 2, Order: 1, Pattern: MustCompile("D1")},
	}
	k := NewKey("k", parts)
	got := k.Generate(func(pid int) string {
		if pid == 1 {
			return "X"
		}
		return "7"
	})
	if got != "7X" {
		t.Errorf("Generate = %q, want 7X (order must win over slice position)", got)
	}
	// NewKey must not reorder the caller's slice.
	if parts[0].Order != 2 {
		t.Error("NewKey mutated the part list it was given")
	}
}

func TestGenerateMissingPath(t *testing.T) {
	k := Key{Parts: []Part{
		{PathID: 1, Order: 1, Pattern: MustCompile("K1,K2")},
		{PathID: 9, Order: 2, Pattern: MustCompile("D1,D2")},
	}}
	got := k.Generate(func(pid int) string {
		if pid == 1 {
			return "Zorro"
		}
		return "" // path 9 missing
	})
	if got != "ZR" {
		t.Errorf("Generate with missing path = %q, want ZR", got)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustCompile("bogus")
}

// Property: Apply output length never exceeds MaxLen and contains only
// upper-case letters and digits.
func TestApplyBounds(t *testing.T) {
	pats := []Pattern{
		MustCompile("K1-K5"),
		MustCompile("C1-C4"),
		MustCompile("D1,D2,D3"),
		MustCompile("K1,D1,C1"),
	}
	f := func(value string) bool {
		for _, p := range pats {
			out := p.Apply(value)
			if len([]rune(out)) > p.MaxLen() {
				return false
			}
			if out != strings.ToUpper(out) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Apply is insensitive to case and leading/trailing space.
func TestApplyNormalizationInvariance(t *testing.T) {
	p := MustCompile("K1-K4,D1,D2")
	f := func(value string) bool {
		return p.Apply(value) == p.Apply("  "+strings.ToLower(value)+" ")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClassString(t *testing.T) {
	if Consonant.String() != "K" || Char.String() != "C" || Digit.String() != "D" {
		t.Error("class names wrong")
	}
}

func TestPatternString(t *testing.T) {
	if got := MustCompile("K1-K5").String(); got != "K1-K5" {
		t.Errorf("String = %q", got)
	}
}

func TestSoundexClass(t *testing.T) {
	if got := MustCompile("S").Apply("Robert"); got != "R163" {
		t.Errorf("S on Robert = %q, want R163", got)
	}
	// Phonetic equivalence: Robert and Rupert share the key.
	if MustCompile("S").Apply("Robert") != MustCompile("S").Apply("Rupert") {
		t.Error("soundex keys should match for Robert/Rupert")
	}
	// Composes with other tokens.
	if got := MustCompile("S,D3,D4").Apply("Robert 1998"); got != "R16398" {
		t.Errorf("S,D3,D4 = %q, want R16398", got)
	}
	if got := MustCompile("S").MaxLen(); got != 4 {
		t.Errorf("MaxLen(S) = %d, want 4", got)
	}
	if got := MustCompile("S").Apply("12345"); got != "" {
		t.Errorf("S on letterless value = %q, want empty", got)
	}
	// "S1" is not the soundex token; it must fail like other bad input.
	if _, err := Compile("S1"); err == nil {
		t.Error("S1 should not compile")
	}
}
