// Package keygen implements SXNM's key pattern language and key
// construction.
//
// A pattern is a comma-separated list of tokens; each token names a
// character class and a 1-based position or inclusive position range
// within that class:
//
//	K1-K5    the first five consonants
//	D3,D4    the third and fourth digits
//	C1,C2    the first and second characters (letters or digits)
//	S        the Soundex code of the whole value (4 characters)
//
// Classes follow the paper: K = consonants, C = characters, D = digits.
// S is an extension in the spirit of the original merge/purge work,
// whose key definitions included phonetic codes.
// Positions address the sequence of class members extracted from the
// normalized (upper-cased, diacritic-folded) value; positions beyond
// the available characters contribute nothing, so values with missing
// data yield shorter keys — exactly the behaviour the paper relies on
// when it discusses badly sorted keys for missing years.
package keygen

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/similarity"
	"repro/internal/strutil"
)

// Class is a key pattern character class.
type Class byte

const (
	// Consonant is the K class: letters that are not vowels.
	Consonant Class = 'K'
	// Char is the C class: letters and digits.
	Char Class = 'C'
	// Digit is the D class: decimal digits.
	Digit Class = 'D'
	// SoundexCode is the S class: the American Soundex code of the
	// whole value. It takes no positions.
	SoundexCode Class = 'S'
)

func (c Class) String() string { return string(byte(c)) }

// member reports whether r belongs to the class.
func (c Class) member(r rune) bool {
	switch c {
	case Consonant:
		return strutil.IsConsonant(r)
	case Char:
		return strutil.IsChar(r)
	case Digit:
		return strutil.IsDigit(r)
	}
	return false
}

// slot indexes the three positional classes for per-value caches.
func (c Class) slot() int {
	switch c {
	case Consonant:
		return 0
	case Char:
		return 1
	default:
		return 2
	}
}

// Token selects positions From..To (1-based, inclusive) from one class.
type Token struct {
	Class    Class
	From, To int
}

// Pattern is a compiled key pattern.
type Pattern struct {
	Tokens []Token
	src    string
}

// String returns the pattern source, e.g. "K1-K5".
func (p Pattern) String() string { return p.src }

// MaxLen returns the maximum number of characters this pattern can
// contribute to a key.
func (p Pattern) MaxLen() int {
	n := 0
	for _, t := range p.Tokens {
		if t.Class == SoundexCode {
			n += 4
			continue
		}
		n += t.To - t.From + 1
	}
	return n
}

// Compile parses a pattern expression such as "K1-K5" or "D3,D4".
func Compile(expr string) (Pattern, error) {
	src := expr
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return Pattern{}, fmt.Errorf("keygen: empty pattern")
	}
	var tokens []Token
	for _, raw := range strings.Split(expr, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			return Pattern{}, fmt.Errorf("keygen: %q: empty token", src)
		}
		tok, err := parseToken(raw)
		if err != nil {
			return Pattern{}, fmt.Errorf("keygen: %q: %w", src, err)
		}
		tokens = append(tokens, tok)
	}
	return Pattern{Tokens: tokens, src: src}, nil
}

// MustCompile is Compile for statically known patterns; panics on error.
func MustCompile(expr string) Pattern {
	p, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return p
}

// parseToken parses "K3" or "K1-K5" (the range form repeats the class
// letter on both ends, as the paper's tables write it; a bare "K1-5"
// is accepted too).
func parseToken(raw string) (Token, error) {
	if raw == "S" || raw == "s" {
		return Token{Class: SoundexCode, From: 1, To: 1}, nil
	}
	class, rest, err := splitClass(raw)
	if err != nil {
		return Token{}, err
	}
	if i := strings.IndexByte(rest, '-'); i >= 0 {
		fromStr, toRaw := rest[:i], rest[i+1:]
		from, err := parsePos(fromStr)
		if err != nil {
			return Token{}, fmt.Errorf("token %q: %w", raw, err)
		}
		// The end may repeat the class letter ("K1-K5") or not ("K1-5").
		if len(toRaw) > 0 && Class(toRaw[0]) == class {
			toRaw = toRaw[1:]
		}
		to, err := parsePos(toRaw)
		if err != nil {
			return Token{}, fmt.Errorf("token %q: %w", raw, err)
		}
		if to < from {
			return Token{}, fmt.Errorf("token %q: descending range", raw)
		}
		return Token{Class: class, From: from, To: to}, nil
	}
	pos, err := parsePos(rest)
	if err != nil {
		return Token{}, fmt.Errorf("token %q: %w", raw, err)
	}
	return Token{Class: class, From: pos, To: pos}, nil
}

func splitClass(raw string) (Class, string, error) {
	if raw == "" {
		return 0, "", fmt.Errorf("empty token")
	}
	c := Class(raw[0])
	switch c {
	case Consonant, Char, Digit:
		return c, raw[1:], nil
	}
	return 0, "", fmt.Errorf("unknown class %q (want K, C, D, or S)", raw[0])
}

func parsePos(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 1 {
		return 0, fmt.Errorf("position must be a positive integer, got %q", s)
	}
	return n, nil
}

// Apply extracts the pattern's characters from value. The value is
// normalized first; positions with no corresponding character are
// skipped silently.
func (p Pattern) Apply(value string) string {
	var buf [64]byte
	return string(p.appendTo(buf[:0], value))
}

// appendTo appends Apply(value) to dst. The normalized value and the
// class members live in stack buffers; only the members a token can
// reach are extracted, so a long value costs no more than its prefix.
func (p Pattern) appendTo(dst []byte, value string) []byte {
	var normBuf [128]byte
	norm := strutil.AppendNormalize(normBuf[:0], value)
	// Per class: how many leading members the tokens reach.
	var need [3]int
	for _, t := range p.Tokens {
		if t.Class != SoundexCode && t.To > need[t.Class.slot()] {
			need[t.Class.slot()] = t.To
		}
	}
	var memberBuf [3][32]rune
	var members [3][]rune
	var extracted [3]bool
	for _, t := range p.Tokens {
		if t.Class == SoundexCode {
			dst = append(dst, similarity.Soundex(string(norm))...)
			continue
		}
		i := t.Class.slot()
		if !extracted[i] {
			m := memberBuf[i][:0]
			for _, r := range string(norm) {
				if len(m) == need[i] {
					break
				}
				if t.Class.member(r) {
					m = append(m, r)
				}
			}
			members[i], extracted[i] = m, true
		}
		chars := members[i]
		for pos := t.From; pos <= t.To && pos <= len(chars); pos++ {
			dst = utf8.AppendRune(dst, chars[pos-1])
		}
	}
	return dst
}

// Part is one component of a key definition: a pattern applied to the
// value found at one configured relative path, placed at a position
// (Order) in the concatenated key. PathID references the PATH relation
// of the configuration (the paper's pid attribute).
type Part struct {
	PathID  int
	Order   int
	Pattern Pattern
}

// Key is a full key definition — the KEY_{s,i} relation of Sec. 3.2 —
// as a list of parts in Order order (NewKey sorts them).
type Key struct {
	Name  string // optional display name, e.g. "key1"
	Parts []Part
}

// NewKey returns a key definition with the parts sorted by Order once,
// so Generate can apply them in slice order. The caller's slice is not
// modified.
func NewKey(name string, parts []Part) Key {
	sorted := slices.Clone(parts)
	slices.SortStableFunc(sorted, func(a, b Part) int { return cmp.Compare(a.Order, b.Order) })
	return Key{Name: name, Parts: sorted}
}

// Generate builds the key string for an element whose path values are
// provided by lookup (mapping PathID to the raw extracted value; a
// missing path yields the empty string). Parts are applied in slice
// order, which NewKey makes the Order order.
func (k Key) Generate(lookup func(pathID int) string) string {
	var buf [64]byte
	b := buf[:0]
	for _, part := range k.Parts {
		b = part.Pattern.appendTo(b, lookup(part.PathID))
	}
	return string(b)
}
