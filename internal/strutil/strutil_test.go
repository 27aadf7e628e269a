package strutil

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestIsVowel(t *testing.T) {
	for _, r := range "aeiouAEIOU" {
		if !IsVowel(r) {
			t.Errorf("IsVowel(%q) = false, want true", r)
		}
	}
	for _, r := range "bcdXYZ19 ." {
		if IsVowel(r) {
			t.Errorf("IsVowel(%q) = true, want false", r)
		}
	}
}

func TestIsConsonant(t *testing.T) {
	cases := []struct {
		r    rune
		want bool
	}{
		{'b', true}, {'Z', true}, {'m', true},
		{'a', false}, {'E', false},
		{'1', false}, {' ', false}, {'-', false},
	}
	for _, c := range cases {
		if got := IsConsonant(c.r); got != c.want {
			t.Errorf("IsConsonant(%q) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestIsChar(t *testing.T) {
	for _, r := range "aZ09é" {
		if !IsChar(r) {
			t.Errorf("IsChar(%q) = false, want true", r)
		}
	}
	for _, r := range " .,-_!" {
		if IsChar(r) {
			t.Errorf("IsChar(%q) = true, want false", r)
		}
	}
}

func TestFold(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Amélie", "Amelie"},
		{"Der Schuß", "Der Schus"},
		{"Señor Müller", "Senor Muller"},
		{"ČŽŠ", "CZS"},
		{"plain", "plain"},
		{"", ""},
	}
	for _, c := range cases {
		if got := Fold(c.in); got != c.want {
			t.Errorf("Fold(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"  The  Matrix ", "THE MATRIX"},
		{"amélie", "AMELIE"},
		{"a\tb\nc", "A B C"},
		{"", ""},
		{"   ", ""},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestExtractClasses(t *testing.T) {
	s := "Mask of Zorro, 1998"
	if got := string(Consonants(s)); got != "MskfZrr" {
		t.Errorf("Consonants(%q) = %q, want %q", s, got, "MskfZrr")
	}
	if got := string(Digits(s)); got != "1998" {
		t.Errorf("Digits(%q) = %q, want %q", s, got, "1998")
	}
	if got := string(Chars(s)); got != "MaskofZorro1998" {
		t.Errorf("Chars(%q) = %q, want %q", s, got, "MaskofZorro1998")
	}
}

// Paper example (Sec. 2.2): key for ("Mask of Zorro", 1998) with first
// four consonants of the title and 3rd+4th digit of the year is MSKF98.
func TestPaperKeyExample(t *testing.T) {
	title := Normalize("Mask of Zorro")
	year := "1998"
	cons := Consonants(title)
	if len(cons) < 4 {
		t.Fatalf("too few consonants in %q", title)
	}
	key := string(cons[:4]) + year[2:4]
	if key != "MSKF98" {
		t.Errorf("key = %q, want MSKF98", key)
	}
}

func TestFields(t *testing.T) {
	got := Fields(" the  Matrix reloaded ")
	want := []string{"THE", "MATRIX", "RELOADED"}
	if len(got) != len(want) {
		t.Fatalf("Fields = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("Fields[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCollapseSpaces(t *testing.T) {
	if got := CollapseSpaces("  a   b  "); got != "a b" {
		t.Errorf("CollapseSpaces = %q, want %q", got, "a b")
	}
}

// Property: Normalize is idempotent.
func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		return Normalize(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Extract output is a subsequence of the input.
func TestExtractSubsequence(t *testing.T) {
	f := func(s string) bool {
		out := Chars(s)
		in := []rune(s)
		j := 0
		for _, r := range out {
			for j < len(in) && in[j] != r {
				j++
			}
			if j == len(in) {
				return false
			}
			j++
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: classes partition letters — every letter is vowel or
// consonant, never both.
func TestLetterClassPartition(t *testing.T) {
	f := func(s string) bool {
		for _, r := range s {
			if unicode.IsLetter(r) {
				if IsVowel(r) == IsConsonant(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Fold never changes the rune count for our folding table
// (single-rune replacements only).
func TestFoldPreservesLength(t *testing.T) {
	f := func(s string) bool {
		return len([]rune(Fold(s))) == len([]rune(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeNoLeadingTrailingSpace(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		return n == strings.TrimSpace(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFoldTableComplete exercises every row of the folding table.
func TestFoldTableComplete(t *testing.T) {
	groups := map[string]rune{
		"àáâãäåāăą": 'a', "ÀÁÂÃÄÅĀĂĄ": 'A',
		"èéêëēĕėęě": 'e', "ÈÉÊËĒĔĖĘĚ": 'E',
		"ìíîïĩīĭįı": 'i', "ÌÍÎÏĨĪĬĮİ": 'I',
		"òóôõöøōŏő": 'o', "ÒÓÔÕÖØŌŎŐ": 'O',
		"ùúûüũūŭůűų": 'u', "ÙÚÛÜŨŪŬŮŰŲ": 'U',
		"çćĉċč": 'c', "ÇĆĈĊČ": 'C',
		"ñńņň": 'n', "ÑŃŅŇ": 'N',
		"ýÿ": 'y', "ÝŸ": 'Y',
		"šśŝş": 's', "ŠŚŜŞ": 'S',
		"žźż": 'z', "ŽŹŻ": 'Z',
		"ð": 'd', "Ð": 'D', "þ": 't', "ß": 's',
	}
	for in, want := range groups {
		for _, r := range in {
			got := Fold(string(r))
			if got != string(want) {
				t.Errorf("Fold(%q) = %q, want %q", r, got, want)
			}
		}
	}
	// Non-table runes pass through untouched.
	for _, r := range "abcXYZ09 .季ж" {
		if Fold(string(r)) != string(r) {
			t.Errorf("Fold(%q) changed a non-table rune", r)
		}
	}
}

// FuzzNormalize pins Normalize's ASCII byte loop and its
// already-canonical shortcut against the rune loop, which is correct
// for every input: both must agree byte for byte, also when appending
// after existing bytes (leading whitespace is dropped relative to the
// appended part, not to the whole buffer).
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "The  Matrix ", "ABC DEF", "ABC  DEF", " LEAD", "TRAIL ",
		"a\tb\nc\vd\fe\rf", "\x00\x7f~@[`{", "1999", "Amélie", "\xff", "K", "ẞ", "a b",
		"The quick brown fox jumps over the lazy dog",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := string(appendNormalizeRunes(nil, s))
		if got := Normalize(s); got != want {
			t.Fatalf("Normalize(%q) = %q, rune loop gives %q", s, got, want)
		}
		if got := string(AppendNormalize([]byte("x"), s)); got != "x"+want {
			t.Fatalf("AppendNormalize(%q, %q) = %q, want %q", "x", s, got, "x"+want)
		}
	})
}

// TestClassPredicatesASCII checks the ASCII shortcuts of the K, C and D
// class predicates against the unicode tables they stand in for.
func TestClassPredicatesASCII(t *testing.T) {
	for r := rune(0); r < 0x80; r++ {
		if got, want := IsConsonant(r), unicode.IsLetter(r) && !IsVowel(r); got != want {
			t.Errorf("IsConsonant(%q) = %v, want %v", r, got, want)
		}
		if got, want := IsChar(r), unicode.IsLetter(r) || unicode.IsDigit(r); got != want {
			t.Errorf("IsChar(%q) = %v, want %v", r, got, want)
		}
		if got, want := IsDigit(r), unicode.IsDigit(r); got != want {
			t.Errorf("IsDigit(%q) = %v, want %v", r, got, want)
		}
	}
}
