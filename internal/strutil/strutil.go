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
	return unicode.IsLetter(r) && !IsVowel(r)
}

// IsChar reports whether r belongs to the C character class:
// any letter or digit. Whitespace and punctuation are excluded so that
// keys built from titles are insensitive to spacing and punctuation
// differences between duplicates.
func IsChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// IsDigit reports whether r belongs to the D character class.
func IsDigit(r rune) bool {
	return unicode.IsDigit(r)
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
// whose lower case is k, would not otherwise).
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for _, r := range s {
		r = foldRune(unicode.ToLower(r))
		if unicode.IsSpace(r) {
			space = b.Len() > 0
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(unicode.ToUpper(r))
	}
	return b.String()
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
