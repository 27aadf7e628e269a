package similarity

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/strutil"
)

// This file is the bound-soundness harness for the threshold-aware
// fast path: every inequality the engine's filter relies on is checked
// bit-for-bit against the exact similarity functions, both on fuzzed
// raw bytes (FuzzBoundSoundness, wired into `make fuzz-short`) and on
// seeded randomized corpora with unicode and randomized OD field
// configurations (TestBoundSoundnessQuick).

// checkBoundSoundness is the shared property set: given any two raw
// strings, every bound the fast path uses must hold exactly.
func checkBoundSoundness(t *testing.T, a, b string, max int) {
	t.Helper()
	ska, skb := SketchValue(a), SketchValue(b)

	// Sketch round trip: the sketch holds exactly what NormalizedEdit
	// would compute from the raw value.
	if want := strutil.Normalize(a); ska.Norm != want {
		t.Fatalf("SketchValue(%q).Norm = %q, want %q", a, ska.Norm, want)
	}
	if want := utf8.RuneCountInString(ska.Norm); ska.RuneLen != want {
		t.Fatalf("SketchValue(%q).RuneLen = %d, want %d", a, ska.RuneLen, want)
	}
	var histSum int32
	for _, c := range ska.Hist {
		if c < 0 {
			t.Fatalf("SketchValue(%q) has negative bin count", a)
		}
		histSum += c
	}
	if int(histSum) != ska.RuneLen {
		t.Fatalf("SketchValue(%q) hist sums to %d, RuneLen %d", a, histSum, ska.RuneLen)
	}

	exact := NormalizedEdit(a, b)
	d := Levenshtein(ska.Norm, skb.Norm)

	// Frequency bound never over-estimates the edit distance…
	if lb := EditDistanceLowerBound(&ska, &skb); lb > d {
		t.Fatalf("EditDistanceLowerBound(%q, %q) = %d > Levenshtein %d", a, b, lb, d)
	}
	// …so the sketch similarity bound never under-estimates NormalizedEdit.
	if ub := EditUpperBoundSketch(&ska, &skb); ub < exact {
		t.Fatalf("EditUpperBoundSketch(%q, %q) = %v < NormalizedEdit %v", a, b, ub, exact)
	}
	// The legacy length-only bound stays sound too.
	if ub := EditUpperBound(a, b); ub < exact {
		t.Fatalf("EditUpperBound(%q, %q) = %v < NormalizedEdit %v", a, b, ub, exact)
	}

	// LevenshteinBounded agrees with the full distance whenever the
	// true distance fits the band, and reports max+1 otherwise.
	if max < 0 {
		max = 0
	}
	got := LevenshteinBounded(ska.Norm, skb.Norm, max)
	if d <= max && got != d {
		t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, want exact %d", ska.Norm, skb.Norm, max, got, d)
	}
	if d > max && got != max+1 {
		t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, want cut-off %d", ska.Norm, skb.Norm, max, got, max+1)
	}

	// The exact-similarity reconstruction the banded path uses: when
	// the normalized strings differ, NormalizedEdit is exactly
	// 1 − d/m in the same float64 operation order.
	if ska.Norm != skb.Norm {
		m := ska.RuneLen
		if skb.RuneLen > m {
			m = skb.RuneLen
		}
		if v := NormalizedEditFromDistance(d, m); v != exact {
			t.Fatalf("NormalizedEditFromDistance(%d, %d) = %v, NormalizedEdit(%q, %q) = %v", d, m, v, a, b, exact)
		}
	}
}

func FuzzBoundSoundness(f *testing.F) {
	f.Add("", "", uint8(0))
	f.Add("The Matrix", "The Martix", uint8(2))
	f.Add("ABBA", "BABA", uint8(1)) // anagram: length bound is blind, histogram is not
	f.Add("héllo wörld", "hello", uint8(3))
	f.Add("12345", "54321", uint8(0))
	f.Add("\xff\xfe", "\xef\xbf\xbd", uint8(1)) // invalid UTF-8 exercises rune replacement
	f.Fuzz(func(t *testing.T, a, b string, maxSeed uint8) {
		checkBoundSoundness(t, a, b, int(maxSeed))
	})
}

// randValue draws a value from a small alphabet so collisions (equal
// and near-equal strings) actually happen.
func randValue(rng *rand.Rand) string {
	alphabets := []string{
		"ab",
		"abc XYZ",
		"0123456789",
		"αβγδε",
		"日本語漢字",
		"aA 1!é́", // combining accents survive normalization
	}
	al := []rune(alphabets[rng.Intn(len(alphabets))])
	n := rng.Intn(12)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(al[rng.Intn(len(al))])
	}
	return sb.String()
}

func randValues(rng *rand.Rand) []string {
	if rng.Intn(4) == 0 {
		return nil // field missing on this side
	}
	out := make([]string, 1+rng.Intn(3))
	for i := range out {
		out[i] = randValue(rng)
	}
	return out
}

// TestBoundSoundnessQuick is the deterministic quick-check twin of the
// fuzz target: seeded random values through the same property set,
// plus the field- and OD-level bounds across randomized configurations.
func TestBoundSoundnessQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b := randValue(rng), randValue(rng)
		checkBoundSoundness(t, a, b, rng.Intn(8))
	}

	// Field-level: the sketch bound dominates the exact best match.
	for i := 0; i < 500; i++ {
		va, vb := randValues(rng), randValues(rng)
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		exact := 0.0
		for _, x := range va {
			for _, y := range vb {
				if s := NormalizedEdit(x, y); s > exact {
					exact = s
				}
			}
		}
		if ub := EditUpperBoundValues(SketchValues(va), SketchValues(vb)); ub < exact {
			t.Fatalf("EditUpperBoundValues(%q, %q) = %v < best match %v", va, vb, ub, exact)
		}
	}

	// OD-level across randomized configs: ODUpperBound dominates
	// ODSimilarity for any mix of edit and non-edit fields, weights,
	// and missing values.
	simNames := []string{"", "edit", "numeric", "year", "jaccard", "exact"}
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(5)
		fields := make([]ODField, n)
		names := make([]string, n)
		a := make([][]string, n)
		b := make([][]string, n)
		for j := 0; j < n; j++ {
			names[j] = simNames[rng.Intn(len(simNames))]
			fn, err := ByName(names[j])
			if err != nil {
				t.Fatal(err)
			}
			fields[j] = ODField{Relevance: rng.Float64(), Sim: fn}
			a[j], b[j] = randValues(rng), randValues(rng)
		}
		exact, err := ODSimilarity(fields, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if ub := ODUpperBound(fields, FieldBounds(names), a, b); ub < exact {
			t.Fatalf("ODUpperBound = %v < ODSimilarity %v (fields %v, a=%q, b=%q)", ub, exact, names, a, b)
		}
	}
}

// TestLevenshteinBoundedEdges pins the banded implementation on the
// boundary shapes the fast path's band derivation produces.
func TestLevenshteinBoundedEdges(t *testing.T) {
	cases := []struct{ a, b string }{
		{"", ""},
		{"", "abc"},
		{"abc", ""},
		{"a", "a"},
		{"kitten", "sitting"},
		{"日本語", "日本誤"},
		{"αβγ", "αγβ"},
		{"résumé", "resume"},
		{"aaaaaaaaaa", "bbbbbbbbbb"},
		{"ab", "ba"},
	}
	for _, tc := range cases {
		d := Levenshtein(tc.a, tc.b)
		la, lb := utf8.RuneCountInString(tc.a), utf8.RuneCountInString(tc.b)
		// Sweep every band from 0 (pure cut-off test) past the length
		// sum (never cuts off): exact within the band, max+1 beyond it.
		for max := 0; max <= la+lb+1; max++ {
			got := LevenshteinBounded(tc.a, tc.b, max)
			want := d
			if d > max {
				want = max + 1
			}
			if got != want {
				t.Errorf("LevenshteinBounded(%q, %q, %d) = %d, want %d (true distance %d)",
					tc.a, tc.b, max, got, want, d)
			}
		}
	}
}

// TestNormalizedEditFromDistanceMonotone pins the strict monotonicity
// that lets editScore translate a memoized exact score back into
// "would the banded run have been cut off": for every realistic m, the
// mapping d → 1 − d/m must be strictly decreasing, i.e. injective over
// integer distances.
func TestNormalizedEditFromDistanceMonotone(t *testing.T) {
	for _, m := range []int{1, 2, 3, 7, 16, 64, 255, 1024, 65536} {
		prev := NormalizedEditFromDistance(0, m)
		if prev != 1 {
			t.Fatalf("NormalizedEditFromDistance(0, %d) = %v, want 1", m, prev)
		}
		for d := 1; d <= m; d++ {
			v := NormalizedEditFromDistance(d, m)
			if !(v < prev) {
				t.Fatalf("NormalizedEditFromDistance not strictly decreasing at d=%d, m=%d: %v >= %v", d, m, v, prev)
			}
			prev = v
		}
	}
}
