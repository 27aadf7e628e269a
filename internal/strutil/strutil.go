// Package strutil provides string normalization and character-class
// helpers shared by key generation and similarity computation.
//
// SXNM key patterns address characters by class (consonant, character,
// digit) and 1-based position; this package implements the class
// predicates and the extraction primitives on which the key pattern
// compiler (internal/keygen) builds.
package strutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// vowels is the set of characters treated as vowels by the consonant
// class K. The paper's key examples operate on ASCII-folded text, so we
// fold diacritics first (see Fold) and test against the plain vowels.
const vowels = "AEIOU"

// IsVowel reports whether r is an (upper-cased, folded) vowel letter.
func IsVowel(r rune) bool {
	return strings.ContainsRune(vowels, unicode.ToUpper(r))
}

// IsConsonant reports whether r is a letter that is not a vowel.
// This implements the K character class of SXNM key patterns.
func IsConsonant(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiLetter(r) && !strings.ContainsRune(vowels, r&^0x20)
	}
	return unicode.IsLetter(r) && !IsVowel(r)
}

// IsChar reports whether r belongs to the C character class:
// any letter or digit. Whitespace and punctuation are excluded so that
// keys built from titles are insensitive to spacing and punctuation
// differences between duplicates.
func IsChar(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiLetter(r) || '0' <= r && r <= '9'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// IsDigit reports whether r belongs to the D character class.
func IsDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return '0' <= r && r <= '9'
	}
	return unicode.IsDigit(r)
}

// asciiLetter is unicode.IsLetter for an ASCII rune.
func asciiLetter(r rune) bool {
	r |= 0x20
	return 'a' <= r && r <= 'z'
}

// foldRune maps common Latin letters with diacritics to their ASCII
// base letter. It intentionally covers only the Latin-1/Latin Extended-A
// characters that occur in movie and CD metadata; anything else is
// returned unchanged.
func foldRune(r rune) rune {
	switch r {
	case 'à', 'á', 'â', 'ã', 'ä', 'å', 'ā', 'ă', 'ą':
		return 'a'
	case 'À', 'Á', 'Â', 'Ã', 'Ä', 'Å', 'Ā', 'Ă', 'Ą':
		return 'A'
	case 'è', 'é', 'ê', 'ë', 'ē', 'ĕ', 'ė', 'ę', 'ě':
		return 'e'
	case 'È', 'É', 'Ê', 'Ë', 'Ē', 'Ĕ', 'Ė', 'Ę', 'Ě':
		return 'E'
	case 'ì', 'í', 'î', 'ï', 'ĩ', 'ī', 'ĭ', 'į', 'ı':
		return 'i'
	case 'Ì', 'Í', 'Î', 'Ï', 'Ĩ', 'Ī', 'Ĭ', 'Į', 'İ':
		return 'I'
	case 'ò', 'ó', 'ô', 'õ', 'ö', 'ø', 'ō', 'ŏ', 'ő':
		return 'o'
	case 'Ò', 'Ó', 'Ô', 'Õ', 'Ö', 'Ø', 'Ō', 'Ŏ', 'Ő':
		return 'O'
	case 'ù', 'ú', 'û', 'ü', 'ũ', 'ū', 'ŭ', 'ů', 'ű', 'ų':
		return 'u'
	case 'Ù', 'Ú', 'Û', 'Ü', 'Ũ', 'Ū', 'Ŭ', 'Ů', 'Ű', 'Ų':
		return 'U'
	case 'ç', 'ć', 'ĉ', 'ċ', 'č':
		return 'c'
	case 'Ç', 'Ć', 'Ĉ', 'Ċ', 'Č':
		return 'C'
	case 'ñ', 'ń', 'ņ', 'ň':
		return 'n'
	case 'Ñ', 'Ń', 'Ņ', 'Ň':
		return 'N'
	case 'ý', 'ÿ':
		return 'y'
	case 'Ý', 'Ÿ':
		return 'Y'
	case 'š', 'ś', 'ŝ', 'ş':
		return 's'
	case 'Š', 'Ś', 'Ŝ', 'Ş':
		return 'S'
	case 'ž', 'ź', 'ż':
		return 'z'
	case 'Ž', 'Ź', 'Ż':
		return 'Z'
	case 'ð':
		return 'd'
	case 'Ð':
		return 'D'
	case 'þ':
		return 't'
	case 'ß':
		return 's'
	}
	return r
}

// Fold maps diacritics to ASCII base letters, leaving all other runes
// untouched. Folding happens before key extraction so that "Amélie" and
// "Amelie" generate identical keys.
func Fold(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		b.WriteRune(foldRune(r))
	}
	return b.String()
}

// Normalize upper-cases and diacritic-folds s and collapses runs of
// whitespace into single spaces. This is the canonical form on which
// keys are generated. Each rune is lower-cased before it is folded and
// upper-cased, so a letter and its lower case always normalize alike
// (the capital sharp S, whose lower case is ß, and the Kelvin sign,
// whose lower case is k, would not otherwise). An ASCII value that is
// already in canonical form is returned as is, without allocating.
func Normalize(s string) string {
	if isNormalASCII(s) {
		return s
	}
	var buf [64]byte
	return string(AppendNormalize(buf[:0], s))
}

// AppendNormalize appends Normalize(s) to dst and returns the extended
// slice. ASCII input takes a byte loop; anything else takes the rune
// loop, which FuzzNormalize pins the byte loop against.
func AppendNormalize(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return appendNormalizeRunes(dst, s)
		}
	}
	return appendNormalizeASCII(dst, s)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// isNormalASCII reports whether s is ASCII and already canonical: no
// lower-case letters, no whitespace but single inner spaces.
func isNormalASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf || 'a' <= c && c <= 'z':
			return false
		case asciiSpace[c]:
			if c != ' ' || i == 0 || i == len(s)-1 || s[i+1] == ' ' {
				return false
			}
		}
	}
	return true
}

// appendNormalizeASCII is the rune loop below specialized to ASCII,
// where folding is the identity and case mapping is a byte offset.
func appendNormalizeASCII(dst []byte, s string) []byte {
	start := len(dst)
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if asciiSpace[c] {
			space = len(dst) > start
			continue
		}
		if space {
			dst = append(dst, ' ')
			space = false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

func appendNormalizeRunes(dst []byte, s string) []byte {
	start := len(dst)
	space := false
	for _, r := range s {
		r = foldRune(unicode.ToLower(r))
		if unicode.IsSpace(r) {
			space = len(dst) > start
			continue
		}
		if space {
			dst = append(dst, ' ')
			space = false
		}
		dst = utf8.AppendRune(dst, unicode.ToUpper(r))
	}
	return dst
}

// Extract returns the runes of s (in order) for which class returns
// true. It is the shared primitive behind the K/C/D pattern classes.
func Extract(s string, class func(rune) bool) []rune {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if class(r) {
			out = append(out, r)
		}
	}
	return out
}

// Consonants returns the consonant letters of s in order.
func Consonants(s string) []rune { return Extract(s, IsConsonant) }

// Chars returns the letters and digits of s in order.
func Chars(s string) []rune { return Extract(s, IsChar) }

// Digits returns the digit runes of s in order.
func Digits(s string) []rune { return Extract(s, IsDigit) }

// Fields splits s on whitespace after normalization; convenient for
// token-level similarity measures.
func Fields(s string) []string {
	return strings.Fields(Normalize(s))
}

// CollapseSpaces trims s and collapses internal whitespace runs to a
// single space without changing case.
func CollapseSpaces(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
