package similarity

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestODSimilarityWeighted(t *testing.T) {
	fields := []ODField{
		{Relevance: 0.8, Sim: NormalizedEdit},
		{Relevance: 0.2, Sim: NormalizedEdit},
	}
	// Identical values on both fields.
	s, err := ODSimilarity(fields, [][]string{{"Matrix"}, {"1999"}}, [][]string{{"Matrix"}, {"1999"}})
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("identical = %v, want 1", s)
	}
	// First field identical, second disjoint: 0.8·1 + 0.2·0 = 0.8.
	s, err = ODSimilarity(fields, [][]string{{"Matrix"}, {"1999"}}, [][]string{{"Matrix"}, {"xxxx"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.8) > 1e-9 {
		t.Errorf("mixed = %v, want 0.8", s)
	}
}

func TestODSimilarityMissingBothSides(t *testing.T) {
	fields := []ODField{
		{Relevance: 0.5, Sim: NormalizedEdit},
		{Relevance: 0.5, Sim: NormalizedEdit},
	}
	// Second field missing on both sides: weight renormalizes, so the
	// matching first field alone gives 1.
	s, err := ODSimilarity(fields, [][]string{{"Matrix"}, nil}, [][]string{{"Matrix"}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("renormalized = %v, want 1", s)
	}
}

func TestODSimilarityMissingOneSide(t *testing.T) {
	fields := []ODField{{Relevance: 1, Sim: NormalizedEdit}}
	s, err := ODSimilarity(fields, [][]string{{"Matrix"}}, [][]string{nil})
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("one-sided = %v, want 0", s)
	}
}

func TestODSimilarityAllMissing(t *testing.T) {
	fields := []ODField{{Relevance: 1, Sim: NormalizedEdit}}
	s, err := ODSimilarity(fields, [][]string{nil}, [][]string{nil})
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("all missing = %v, want 0", s)
	}
}

func TestODSimilarityMultiValueBestMatch(t *testing.T) {
	fields := []ODField{{Relevance: 1, Sim: NormalizedEdit}}
	s, err := ODSimilarity(fields,
		[][]string{{"Various", "Mozart"}},
		[][]string{{"Mozart"}})
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("best match = %v, want 1", s)
	}
}

func TestODSimilarityMismatch(t *testing.T) {
	fields := []ODField{{Relevance: 1, Sim: NormalizedEdit}}
	if _, err := ODSimilarity(fields, [][]string{}, [][]string{{"x"}}); err == nil {
		t.Error("expected error on value count mismatch")
	}
}

func TestOverlapPaperExample(t *testing.T) {
	// Fig. 2(b)/Table 2(b): e1's persons map to clusters {1,4,1}, e2's
	// to {4,1,8}. Multiset: inter = {1,4} (2), union = 4 -> 0.5.
	got := Overlap([]int{1, 4, 1}, []int{4, 1, 8})
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Overlap = %v, want 0.5", got)
	}
}

func TestOverlapEdgeCases(t *testing.T) {
	if Overlap(nil, nil) != 1 {
		t.Error("both empty should be 1")
	}
	if Overlap([]int{1}, nil) != 0 {
		t.Error("one empty should be 0")
	}
	if Overlap([]int{1, 2}, []int{1, 2}) != 1 {
		t.Error("identical should be 1")
	}
	if Overlap([]int{1}, []int{2}) != 0 {
		t.Error("disjoint should be 0")
	}
	// Multiset semantics: duplicate IDs only count as many times as
	// they appear on both sides.
	got := Overlap([]int{1, 1, 1}, []int{1})
	if math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("multiset = %v, want 1/3", got)
	}
}

func TestOverlapProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	sym := func(a, b []int) bool {
		return math.Abs(Overlap(a, b)-Overlap(b, a)) < 1e-12
	}
	if err := quick.Check(sym, cfg); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	rng := func(a, b []int) bool {
		s := Overlap(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(rng, cfg); err != nil {
		t.Errorf("range: %v", err)
	}
	self := func(a []int) bool { return Overlap(a, a) == 1 }
	if err := quick.Check(self, cfg); err != nil {
		t.Errorf("self: %v", err)
	}
}

func TestAverage(t *testing.T) {
	if Average(nil) != 0 {
		t.Error("empty average should be 0")
	}
	if got := Average([]float64{0.2, 0.4, 0.6}); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Average = %v, want 0.4", got)
	}
}

func TestWeightedAverage(t *testing.T) {
	got, err := WeightedAverage([]float64{1, 0}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("WeightedAverage = %v, want 0.75", got)
	}
	if _, err := WeightedAverage([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	got, err = WeightedAverage([]float64{1}, []float64{0})
	if err != nil || got != 0 {
		t.Errorf("zero weight = %v,%v want 0,nil", got, err)
	}
}

func TestCombine(t *testing.T) {
	// Leaf elements use OD alone.
	if got := Combine(0.7, 0.9, 0.5, false); got != 0.7 {
		t.Errorf("leaf = %v, want 0.7", got)
	}
	// Paper's average.
	if got := Combine(0.6, 0.8, 0.5, true); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("average = %v, want 0.7", got)
	}
	// Weight clamping.
	if got := Combine(1, 0, 2, true); got != 1 {
		t.Errorf("clamp high = %v, want 1", got)
	}
	if got := Combine(1, 0, -1, true); got != 0 {
		t.Errorf("clamp low = %v, want 0", got)
	}
}

// TestOverlapSortedMatchesOverlap checks the allocation-free merge
// against the map-counting Overlap on random sorted multisets.
func TestOverlapSortedMatchesOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	list := func() []int {
		var l []int
		for i := rng.Intn(7); i > 0; i-- {
			l = append(l, rng.Intn(5)-1)
		}
		slices.Sort(l)
		return l
	}
	for i := 0; i < 5000; i++ {
		a, b := list(), list()
		if got, want := OverlapSorted(a, b), Overlap(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("OverlapSorted(%v, %v) = %v, Overlap = %v", a, b, got, want)
		}
	}
}
