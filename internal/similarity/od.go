package similarity

import "fmt"

// ODField is one compared object-description entry: the extracted
// values of one relative path for an element, with the path's
// configured relevance and similarity function.
type ODField struct {
	Relevance float64
	Sim       Func
}

// ODSimilarity implements Definition 2 of the paper: the
// relevance-weighted sum of per-path similarities,
//
//	sim^OD(e1,e2) = Σ_i r_i · φ_i(od_{e1,i}, od_{e2,i}).
//
// The paper assumes relevancies sum to 1; we divide by the total weight
// of fields where at least one side has a value, so documents with
// optional fields still produce similarities in [0,1] (a pair missing a
// field on both sides neither helps nor hurts).
//
// a and b hold, per field, the values extracted for each element; a
// multi-valued path contributes the best pairwise value match.
func ODSimilarity(fields []ODField, a, b [][]string) (float64, error) {
	if len(a) != len(fields) || len(b) != len(fields) {
		return 0, fmt.Errorf("similarity: OD value count mismatch: %d fields, %d/%d values", len(fields), len(a), len(b))
	}
	var sum, weight float64
	for i, f := range fields {
		va, vb := a[i], b[i]
		if len(va) == 0 && len(vb) == 0 {
			continue // both missing: field is uninformative
		}
		weight += f.Relevance
		if len(va) == 0 || len(vb) == 0 {
			continue // one side missing: counts as similarity 0
		}
		sum += f.Relevance * bestMatch(f.Sim, va, vb)
	}
	if weight == 0 {
		return 0, nil
	}
	return sum / weight, nil
}

// FieldAbsent marks a field missing on both sides in ODFieldSims
// output; such fields are uninformative rather than dissimilar.
const FieldAbsent = -1

// ODFieldSims computes the per-field similarities underlying
// Definition 2 without aggregating them: the i-th entry is the best
// value match for field i, 0 when exactly one side lacks the field,
// and FieldAbsent when both do. Equational-theory rules
// (internal/rules) consume this vector.
func ODFieldSims(fields []ODField, a, b [][]string) ([]float64, error) {
	if len(a) != len(fields) || len(b) != len(fields) {
		return nil, fmt.Errorf("similarity: OD value count mismatch: %d fields, %d/%d values", len(fields), len(a), len(b))
	}
	out := make([]float64, len(fields))
	for i, f := range fields {
		va, vb := a[i], b[i]
		switch {
		case len(va) == 0 && len(vb) == 0:
			out[i] = FieldAbsent
		case len(va) == 0 || len(vb) == 0:
			out[i] = 0
		default:
			out[i] = bestMatch(f.Sim, va, vb)
		}
	}
	return out, nil
}

// BestMatch is the exported cache-dispatching best match of one OD
// field: the memoized path when c is non-nil, the direct computation
// otherwise — the same dispatch ODSimilarity performs internally, so
// the returned float is bit-identical to the aggregate's per-field
// term either way. The engine's threshold-aware fast path uses it to
// escalate a single field to an exact value.
func BestMatch(c *Cache, field int, sim Func, va, vb []string) float64 {
	if c == nil {
		return bestMatch(sim, va, vb)
	}
	return c.bestMatch(field, sim, va, vb)
}

// bestMatch returns the maximum similarity over the cross product of
// values; paths selecting multiple nodes (e.g. several <artist>
// children) match on their most similar pair.
func bestMatch(sim Func, va, vb []string) float64 {
	best := 0.0
	for _, x := range va {
		for _, y := range vb {
			if s := sim(x, y); s > best {
				best = s
				if best == 1 {
					return 1
				}
			}
		}
	}
	return best
}

// Overlap implements the paper's φ^desc: the ratio between the
// cardinalities of the intersection and the union of two cluster-ID
// lists (treated as multisets, so a movie with the same duplicated
// actor twice does not inflate similarity).
func Overlap(a, b []int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1 // vacuously identical descendant sets
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	count := make(map[int]int, len(a))
	for _, id := range a {
		count[id]++
	}
	inter := 0
	for _, id := range b {
		if count[id] > 0 {
			count[id]--
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// OverlapSorted is Overlap for lists sorted ascending: one merge of
// the two lists counts the multiset intersection, with no allocation.
// The result is bit-identical to Overlap on the same multisets.
func OverlapSorted(a, b []int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Average aggregates per-descendant-type similarities — the paper's
// current agg() implementation. NaN-free: an empty slice yields 0.
func Average(sims []float64) float64 {
	if len(sims) == 0 {
		return 0
	}
	var sum float64
	for _, s := range sims {
		sum += s
	}
	return sum / float64(len(sims))
}

// WeightedAverage aggregates with per-type weights (the paper's
// proposed future extension of agg()). Weights need not sum to 1; zero
// total weight yields 0.
func WeightedAverage(sims, weights []float64) (float64, error) {
	if len(sims) != len(weights) {
		return 0, fmt.Errorf("similarity: %d sims but %d weights", len(sims), len(weights))
	}
	var sum, total float64
	for i, s := range sims {
		sum += s * weights[i]
		total += weights[i]
	}
	if total == 0 {
		return 0, nil
	}
	return sum / total, nil
}

// Combine merges OD and descendant similarity into sim^comb. The
// paper's implementation averages the two; odWeight generalizes that
// (odWeight=0.5 reproduces the paper). When an element has no
// descendants to compare (hasDesc=false), the OD similarity alone is
// used, matching the paper's leaf-node rule.
func Combine(odSim, descSim, odWeight float64, hasDesc bool) float64 {
	if !hasDesc {
		return odSim
	}
	if odWeight < 0 {
		odWeight = 0
	}
	if odWeight > 1 {
		odWeight = 1
	}
	return odWeight*odSim + (1-odWeight)*descSim
}
