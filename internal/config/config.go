// Package config models the SXNM configuration of Sec. 3.2: the set of
// candidates (XML schema elements subject to deduplication) and, per
// candidate, the PATH relation of relative paths, the OD relation of
// weighted object-description entries, and one or more KEY relations
// that define sort keys through character patterns.
//
// Configurations can be built in code or loaded from an XML document
// (the paper notes the configuration "is itself an XML document");
// see Parse in format.go.
package config

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/keygen"
	"repro/internal/xpath"
)

// PathDef is one row of the PATH_s relation: a unique id and a
// relative path addressing data inside a candidate element.
type PathDef struct {
	ID      int
	RelPath string

	compiled *xpath.Path
}

// Path returns the compiled relative path. Validate must have been
// called first (it compiles and caches); Path panics otherwise to
// surface programming errors early.
func (p *PathDef) Path() *xpath.Path {
	if p.compiled == nil {
		panic(fmt.Sprintf("config: path %d (%s) not compiled; call Config.Validate first", p.ID, p.RelPath))
	}
	return p.compiled
}

// ODEntry is one row of the OD_s relation: which path is compared,
// with what relevance (weight), and by which similarity function
// (empty = "edit", the paper's default).
type ODEntry struct {
	PathID    int
	Relevance float64
	SimFunc   string
}

// KeyPart is one row of a KEY_{s,i} relation.
type KeyPart struct {
	PathID  int
	Order   int
	Pattern string
}

// KeyDef is a complete key definition for one candidate. Multiple keys
// on a candidate enable the multi-pass method.
type KeyDef struct {
	Name  string
	Parts []KeyPart
}

// RuleKind selects how OD and descendant similarities classify a pair
// as duplicates.
type RuleKind string

const (
	// RuleCombined compares the weighted combination of OD and
	// descendant similarity (the paper's sim^comb, Sec. 3.4) against
	// Threshold. This is the default.
	RuleCombined RuleKind = "combined"
	// RuleEither classifies as duplicate when the OD similarity meets
	// ODThreshold or the descendant similarity meets DescThreshold —
	// the two-threshold scheme of Experiment set 3, where "a small
	// overlap in children is already sufficient".
	RuleEither RuleKind = "either"
	// RuleBoth requires both thresholds to be met (an equational-
	// theory-style conjunction).
	RuleBoth RuleKind = "both"
)

// Candidate configures duplicate detection for one XML schema element.
type Candidate struct {
	// Name uniquely identifies the candidate and labels its GK and CS
	// relations.
	Name string
	// XPath is the absolute path of the candidate's instances, e.g.
	// "movie_database/movies/movie".
	XPath string

	Paths []PathDef
	OD    []ODEntry
	Keys  []KeyDef

	// Window is the sliding-window size w_s; 0 means "use the run
	// default". Values below 2 (after defaulting) are rejected.
	Window int
	// Threshold classifies sim^comb under RuleCombined. 0 means "use
	// the run default".
	Threshold float64
	// ODThreshold and DescThreshold drive RuleEither / RuleBoth.
	ODThreshold   float64
	DescThreshold float64
	// Rule selects the classification rule; empty means RuleCombined.
	Rule RuleKind
	// ODWeight weighs OD vs. descendant similarity in sim^comb;
	// 0 means the paper's 0.5 (plain average).
	ODWeight float64
	// UseDescendants can be set to false to ignore descendant
	// information for this candidate even when descendant candidates
	// exist (the paper's "information about when not to use
	// descendants").
	UseDescendants *bool
	// AdaptiveKeySim, when positive, enables dynamic window extension
	// (the outlook's Lehti/Fankhauser-style precise blocking): the
	// window keeps growing backwards while the sort keys' normalized
	// edit similarity stays at or above this value.
	AdaptiveKeySim float64
	// AdaptiveMaxWindow caps the extended window; 0 means three times
	// the base window.
	AdaptiveMaxWindow int
	// RuleExpr, when non-empty, is an equational-theory expression
	// (see internal/rules) that replaces the threshold rules for this
	// candidate. It is compiled by sxnm.New; Validate only stores it.
	RuleExpr string

	compiledXPath *xpath.Path
	compiledKeys  []keygen.Key
	pathByID      map[int]*PathDef
}

// DescendantsEnabled reports whether descendant similarity is enabled
// (the default when unset).
func (c *Candidate) DescendantsEnabled() bool {
	return c.UseDescendants == nil || *c.UseDescendants
}

// AbsPath returns the compiled absolute candidate path (after Validate).
func (c *Candidate) AbsPath() *xpath.Path {
	if c.compiledXPath == nil {
		panic(fmt.Sprintf("config: candidate %q not compiled; call Config.Validate first", c.Name))
	}
	return c.compiledXPath
}

// CompiledKeys returns the candidate's key definitions with compiled
// patterns (after Validate).
func (c *Candidate) CompiledKeys() []keygen.Key {
	if c.compiledKeys == nil && len(c.Keys) > 0 {
		panic(fmt.Sprintf("config: candidate %q keys not compiled; call Config.Validate first", c.Name))
	}
	return c.compiledKeys
}

// PathByID resolves a PATH id (after Validate).
func (c *Candidate) PathByID(id int) (*PathDef, bool) {
	p, ok := c.pathByID[id]
	return p, ok
}

// Config is the full parameter set P of Sec. 3.2 plus run defaults.
type Config struct {
	Candidates []Candidate

	// DefaultWindow applies to candidates with Window == 0. Zero means 3,
	// the window the paper uses in its scalability experiments.
	DefaultWindow int
	// DefaultThreshold applies to candidates with Threshold == 0 under
	// RuleCombined. Zero means 0.75.
	DefaultThreshold float64
}

// Default values applied by Validate.
const (
	DefaultWindow    = 3
	DefaultThreshold = 0.75
	DefaultODWeight  = 0.5
)

// Candidate returns the candidate with the given name, or nil.
func (cfg *Config) Candidate(name string) *Candidate {
	for i := range cfg.Candidates {
		if cfg.Candidates[i].Name == name {
			return &cfg.Candidates[i]
		}
	}
	return nil
}

// Validate checks the configuration, compiles all paths, patterns, and
// keys, and fills in defaults. It must be called (directly or via
// sxnm.New) before the configuration is used.
func (cfg *Config) Validate() error {
	if len(cfg.Candidates) == 0 {
		return fmt.Errorf("config: no candidates defined")
	}
	if cfg.DefaultWindow == 0 {
		cfg.DefaultWindow = DefaultWindow
	}
	if cfg.DefaultWindow < 2 {
		return fmt.Errorf("config: default window %d < 2", cfg.DefaultWindow)
	}
	if cfg.DefaultThreshold == 0 {
		cfg.DefaultThreshold = DefaultThreshold
	}
	if err := checkUnit("default threshold", cfg.DefaultThreshold); err != nil {
		return err
	}
	seen := make(map[string]bool, len(cfg.Candidates))
	xpaths := make(map[string]string, len(cfg.Candidates))
	for i := range cfg.Candidates {
		c := &cfg.Candidates[i]
		if c.Name == "" {
			return fmt.Errorf("config: candidate %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("config: duplicate candidate name %q", c.Name)
		}
		seen[c.Name] = true
		if other, dup := xpaths[c.XPath]; dup {
			return fmt.Errorf("config: candidates %q and %q share xpath %q", other, c.Name, c.XPath)
		}
		xpaths[c.XPath] = c.Name
		if err := c.validate(cfg); err != nil {
			return fmt.Errorf("config: candidate %q: %w", c.Name, err)
		}
	}
	return nil
}

func (c *Candidate) validate(cfg *Config) error {
	if c.XPath == "" {
		return fmt.Errorf("no xpath")
	}
	p, err := xpath.Compile(c.XPath)
	if err != nil {
		return err
	}
	if p.IsValuePath() {
		return fmt.Errorf("candidate xpath %q must select elements, not values", c.XPath)
	}
	c.compiledXPath = p

	if c.Window == 0 {
		c.Window = cfg.DefaultWindow
	}
	if c.Window < 2 {
		return fmt.Errorf("window %d < 2", c.Window)
	}
	switch c.Rule {
	case "", RuleCombined:
		c.Rule = RuleCombined
		if c.Threshold == 0 {
			c.Threshold = cfg.DefaultThreshold
		}
		if err := checkUnit("threshold", c.Threshold); err != nil {
			return err
		}
	case RuleEither, RuleBoth:
		if err := checkUnit("od threshold", c.ODThreshold); err != nil {
			return err
		}
		if c.DescendantsEnabled() {
			if err := checkUnit("descendants threshold", c.DescThreshold); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown rule %q (want combined, either, or both)", c.Rule)
	}
	if c.ODWeight == 0 {
		c.ODWeight = DefaultODWeight
	}
	if err := checkUnit("od weight", c.ODWeight); err != nil {
		return err
	}
	if err := checkUnit("adaptive key similarity", c.AdaptiveKeySim); err != nil {
		return err
	}
	if c.AdaptiveMaxWindow < 0 || (c.AdaptiveMaxWindow > 0 && c.AdaptiveMaxWindow < c.Window) {
		return fmt.Errorf("adaptive max window %d must be 0 or >= window %d", c.AdaptiveMaxWindow, c.Window)
	}

	// PATH relation: unique ids, compilable relative value paths.
	if len(c.Paths) == 0 {
		return fmt.Errorf("no paths defined")
	}
	c.pathByID = make(map[int]*PathDef, len(c.Paths))
	for i := range c.Paths {
		pd := &c.Paths[i]
		if _, dup := c.pathByID[pd.ID]; dup {
			return fmt.Errorf("duplicate path id %d", pd.ID)
		}
		cp, err := xpath.Compile(pd.RelPath)
		if err != nil {
			return fmt.Errorf("path %d: %w", pd.ID, err)
		}
		pd.compiled = cp
		c.pathByID[pd.ID] = pd
	}

	// OD relation: valid references, positive relevances, known sims.
	if len(c.OD) == 0 {
		return fmt.Errorf("no object description defined")
	}
	var totalRel float64
	for _, od := range c.OD {
		if _, ok := c.pathByID[od.PathID]; !ok {
			return fmt.Errorf("od references unknown path id %d", od.PathID)
		}
		if od.Relevance <= 0 {
			return fmt.Errorf("od path %d: relevance %v must be positive", od.PathID, od.Relevance)
		}
		if _, err := odSim(od); err != nil {
			return fmt.Errorf("od path %d: %w", od.PathID, err)
		}
		totalRel += od.Relevance
	}
	if math.Abs(totalRel-1) > 0.25 {
		return fmt.Errorf("od relevances sum to %.3f; want approximately 1", totalRel)
	}

	// KEY relations: at least one key, valid path refs, unique orders,
	// compilable patterns.
	if len(c.Keys) == 0 {
		return fmt.Errorf("no keys defined")
	}
	c.compiledKeys = make([]keygen.Key, 0, len(c.Keys))
	for ki, kd := range c.Keys {
		name := kd.Name
		if name == "" {
			name = fmt.Sprintf("key%d", ki+1)
		}
		if len(kd.Parts) == 0 {
			return fmt.Errorf("key %q has no parts", name)
		}
		orders := map[int]bool{}
		var parts []keygen.Part
		for _, part := range kd.Parts {
			if _, ok := c.pathByID[part.PathID]; !ok {
				return fmt.Errorf("key %q references unknown path id %d", name, part.PathID)
			}
			if orders[part.Order] {
				return fmt.Errorf("key %q has duplicate order %d", name, part.Order)
			}
			orders[part.Order] = true
			pat, err := keygen.Compile(part.Pattern)
			if err != nil {
				return fmt.Errorf("key %q: %w", name, err)
			}
			parts = append(parts, keygen.Part{PathID: part.PathID, Order: part.Order, Pattern: pat})
		}
		c.compiledKeys = append(c.compiledKeys, keygen.NewKey(name, parts))
	}
	sortODByPath(c.OD)
	return nil
}

func sortODByPath(od []ODEntry) {
	sort.SliceStable(od, func(i, j int) bool { return od[i].PathID < od[j].PathID })
}

func checkUnit(name string, v float64) error {
	if v < 0 || v > 1 || math.IsNaN(v) {
		return fmt.Errorf("%s %v outside [0,1]", name, v)
	}
	return nil
}
