package core

import (
	"sort"
	"strings"

	"repro/internal/config"
)

// ProcessingOrder returns the candidates in bottom-up order: every
// candidate is preceded by all candidates nested below it in the
// extracted candidate forest, so descendant cluster sets exist before
// an ancestor's own detection runs (Sec. 3.4, "Bottom-up duplicate
// detection").
//
// The schema-level nesting is derived from the candidates' absolute
// paths: B is below A when A's path is a proper prefix of B's. Within
// one nesting level the order is by path depth descending and then by
// name, which makes runs deterministic.
func ProcessingOrder(cfg *config.Config) []*config.Candidate {
	cands := make([]*config.Candidate, len(cfg.Candidates))
	for i := range cfg.Candidates {
		cands[i] = &cfg.Candidates[i]
	}
	depth := func(c *config.Candidate) int {
		return strings.Count(c.XPath, "/")
	}
	sort.SliceStable(cands, func(i, j int) bool {
		di, dj := depth(cands[i]), depth(cands[j])
		if di != dj {
			return di > dj
		}
		return cands[i].Name < cands[j].Name
	})
	return cands
}

// DetectionOrder returns the candidates in bottom-up processing order
// using the nesting actually observed during key generation: a
// candidate is ready once every candidate type occurring among its
// instances' descendants has been processed. This handles candidates
// addressed with the descendant axis, whose static path depth says
// nothing about where their instances sit. The order is built in
// rounds: each round takes every candidate ready at its start, sorted
// by configured path depth descending and then by name.
//
// Self-nesting (a candidate type occurring inside itself) is ignored —
// like the paper, SXNM does not feed a candidate's own clusters into
// its own similarity. Should the observed nesting be cyclic across
// types, the cycle is broken at the candidate with the shallowest
// configured path, which degrades that candidate to OD-only signals
// for the cycle edge rather than failing.
func DetectionOrder(kg *KeyGenResult, cfg *config.Config) []*config.Candidate {
	children := make(map[string]map[string]bool, len(cfg.Candidates))
	for name, t := range kg.Tables {
		for i := range t.Rows {
			for ch := range t.Rows[i].Desc {
				if ch == name {
					continue
				}
				if children[name] == nil {
					children[name] = make(map[string]bool)
				}
				children[name][ch] = true
			}
		}
	}

	remaining := make(map[string]*config.Candidate, len(cfg.Candidates))
	for i := range cfg.Candidates {
		remaining[cfg.Candidates[i].Name] = &cfg.Candidates[i]
	}
	done := make(map[string]bool, len(remaining))
	order := make([]*config.Candidate, 0, len(remaining))
	for len(remaining) > 0 {
		var ready []*config.Candidate
		for name, c := range remaining {
			ok := true
			for ch := range children[name] {
				if !done[ch] && remaining[ch] != nil {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, c)
			}
		}
		if len(ready) == 0 {
			// Cycle across candidate types: break it at the candidate
			// with the shallowest configured path (ties by name).
			var pick *config.Candidate
			for _, c := range remaining {
				if pick == nil || depthOf(c) < depthOf(pick) ||
					(depthOf(c) == depthOf(pick) && c.Name < pick.Name) {
					pick = c
				}
			}
			ready = []*config.Candidate{pick}
		}
		sort.Slice(ready, func(i, j int) bool {
			di, dj := depthOf(ready[i]), depthOf(ready[j])
			if di != dj {
				return di > dj
			}
			return ready[i].Name < ready[j].Name
		})
		for _, c := range ready {
			done[c.Name] = true
			delete(remaining, c.Name)
		}
		order = append(order, ready...)
	}
	return order
}

func depthOf(c *config.Candidate) int {
	return strings.Count(c.XPath, "/")
}

// SchemaParent returns the candidate that is the nearest extracted-tree
// ancestor of c (the candidate with the longest path that strictly
// prefixes c's path), or nil if c is a root of its extracted tree.
func SchemaParent(cfg *config.Config, c *config.Candidate) *config.Candidate {
	var best *config.Candidate
	for i := range cfg.Candidates {
		p := &cfg.Candidates[i]
		if p == c {
			continue
		}
		if strings.HasPrefix(c.XPath, p.XPath+"/") {
			if best == nil || len(p.XPath) > len(best.XPath) {
				best = p
			}
		}
	}
	return best
}

// SchemaChildren returns the candidates whose nearest extracted-tree
// ancestor is c, sorted by name.
func SchemaChildren(cfg *config.Config, c *config.Candidate) []*config.Candidate {
	var out []*config.Candidate
	for i := range cfg.Candidates {
		ch := &cfg.Candidates[i]
		if ch != c && SchemaParent(cfg, ch) == c {
			out = append(out, ch)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
