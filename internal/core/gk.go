// Package core implements the SXNM algorithm of Sec. 3: single-pass
// key generation into GK relations, bottom-up multi-pass sliding-window
// duplicate detection, and transitive closure into cluster sets.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/runlimit"
	"repro/internal/similarity"
	"repro/internal/xmltree"
)

// GKRow is one row of a GK_s relation (Sec. 3.3): the element ID, the
// generated keys (one per key definition), the extracted object
// description values (aligned with the candidate's OD entries), and —
// for the bottom-up phase — the element IDs of descendant candidate
// instances grouped by descendant candidate name.
type GKRow struct {
	EID  int
	Keys []string
	OD   [][]string
	Desc map[string][]int

	// desc holds, per descendant type of the table (indexed by the
	// ordinals of GKTable.descTypes), the sorted cluster IDs of the
	// row's Desc elements once the descendant cluster sets are known,
	// plus that list's interned SetID when the run uses a similarity
	// cache (Options.SimCache). Filled in by the engine before the
	// candidate's own passes; nil for a row without descendants.
	desc []descList

	// odSketch holds, per OD field with the edit measure, one
	// ValueSketch per value (nil entries for other fields); prepared by
	// GKTable.sketchRow for the threshold-aware fast path. sketched
	// distinguishes a prepared row with no edit fields from an
	// unprepared one. Derived data: never serialized, recomputed when a
	// spilled row is decoded.
	odSketch [][]similarity.ValueSketch
	sketched bool
}

// GKTable is the GK_s relation for one candidate plus the resolved OD
// similarity fields.
type GKTable struct {
	Candidate *config.Candidate
	Rows      []GKRow

	fields []similarity.ODField
	bounds []bool // per OD field: does the length upper bound apply?

	// byEID maps EID -> row index; built on the first Row call, since
	// detection itself never looks a row up by ID.
	byEIDOnce sync.Once
	byEID     map[int]int

	// descTypes lists the descendant candidate names found in the rows'
	// Desc, sorted; GKRow.desc is indexed by their ordinals.
	descTypes []string
}

// descList is one descendant type's l_e list of a row (Def. 3): the
// cluster IDs of its descendant instances, sorted ascending, and their
// interned SetID (0, the empty multiset, without a similarity cache).
type descList struct {
	cids []int
	set  similarity.SetID
}

// Row returns the row for the given element ID, or nil. Call it once
// the table is complete: the ID index is built on first use.
func (t *GKTable) Row(eid int) *GKRow {
	t.byEIDOnce.Do(func() {
		t.byEID = make(map[int]int, len(t.Rows))
		for i := range t.Rows {
			t.byEID[t.Rows[i].EID] = i
		}
	})
	i, ok := t.byEID[eid]
	if !ok {
		return nil
	}
	return &t.Rows[i]
}

// KeyGenResult is the outcome of the key generation phase: one GK
// table per candidate (keyed by candidate name) and the phase duration.
type KeyGenResult struct {
	Tables   map[string]*GKTable
	Duration time.Duration
}

// GenerateKeys performs the key generation phase (Sec. 3.3): a single
// walk over the document that, for every candidate instance, generates
// all defined keys, extracts the object description values, and records
// which candidate instances are nested under which (via the nearest
// candidate ancestor, mirroring the extracted candidate trees of
// Fig. 3(b)).
//
// The configuration must be validated.
func GenerateKeys(doc *xmltree.Document, cfg *config.Config) (*KeyGenResult, error) {
	return GenerateKeysContext(context.Background(), doc, cfg, Limits{})
}

// GenerateKeysContext is GenerateKeys under a context and limits: the
// document walk checks for cancellation periodically, lim.MaxRows caps
// the rows recorded per candidate, and lim.MaxDepth/MaxNodes are
// verified up front (mirroring the parse-time checks for documents
// built in memory). On interruption the partial KeyGenResult built so
// far is returned together with the typed cause.
func GenerateKeysContext(ctx context.Context, doc *xmltree.Document, cfg *config.Config, lim Limits) (*KeyGenResult, error) {
	return GenerateKeysObserved(ctx, doc, cfg, lim, nil)
}

// GenerateKeysObserved is GenerateKeysContext with the key generation
// phase traced: one SpanKeyGen span carrying the candidate count and
// total rows extracted, plus the GKRows metric. A nil or disabled
// observer reduces to GenerateKeysContext exactly.
func GenerateKeysObserved(ctx context.Context, doc *xmltree.Document, cfg *config.Config, lim Limits, ob *obs.Observer) (kgOut *KeyGenResult, errOut error) {
	start := time.Now()
	if !ob.Enabled() {
		ob = nil
	}
	if ob != nil {
		sp := ob.StartSpan(obs.SpanKeyGen, obs.Int("candidates", len(cfg.Candidates)))
		defer func() { finishKeyGenSpan(sp, ob, kgOut, errOut) }()
	}
	ctx, stop := runlimit.WithTimeout(ctx, lim)
	defer stop()
	bud := newBudget(ctx, lim)
	if err := checkDocLimits(doc, lim); err != nil {
		return &KeyGenResult{Tables: map[string]*GKTable{}, Duration: time.Since(start)}, err
	}

	tables, err := newGKTables(cfg)
	if err != nil {
		return nil, err
	}

	// Match elements to candidates by path. Candidate paths that use the
	// descendant axis or wildcards are resolved up front into an
	// element-pointer set; plain paths are matched by the walk itself,
	// which advances a path-trie position per element. Both yield the
	// candidate's index in cfg.Candidates.
	plain := plainPathTrie(cfg)
	special := make(map[*xmltree.Node]int)
	for i := range cfg.Candidates {
		c := &cfg.Candidates[i]
		if isPlainPath(c.XPath) {
			continue
		}
		for _, n := range c.AbsPath().SelectDocument(doc) {
			special[n] = i
		}
	}
	candidateOf := func(n *xmltree.Node, at *xmltree.PathNode) int {
		if k, ok := special[n]; ok {
			return k
		}
		return at.Value()
	}

	// Depth-first walk with an explicit stack of open candidate
	// instances so each candidate element registers with its nearest
	// candidate ancestor.
	rows := make([]rowChunks, len(cfg.Candidates))
	var stack []*GKRow
	visited := 0
	// walk visits n, whose parent sits at trie position up.
	var walk func(n *xmltree.Node, up *xmltree.PathNode) error
	walk = func(n *xmltree.Node, up *xmltree.PathNode) error {
		if n.Kind != xmltree.ElementNode {
			return nil
		}
		visited++
		if err := bud.poll(visited); err != nil {
			return err
		}
		at := up.Child(n.Name)
		pushed := false
		if k := candidateOf(n, at); k >= 0 {
			c := &cfg.Candidates[k]
			if err := lim.CheckRows(rows[k].n + 1); err != nil {
				return err
			}
			row, err := buildRow(n, c)
			if err != nil {
				return err
			}
			if len(stack) > 0 {
				pr := stack[len(stack)-1]
				if pr.Desc == nil {
					pr.Desc = make(map[string][]int, 2)
				}
				pr.Desc[c.Name] = append(pr.Desc[c.Name], row.EID)
			}
			stack = append(stack, rows[k].add(row))
			pushed = true
		}
		for _, ch := range n.Children {
			if err := walk(ch, at); err != nil {
				return err
			}
		}
		if pushed {
			stack = stack[:len(stack)-1]
		}
		return nil
	}
	err = walk(doc.Root, plain.Root())
	for k := range rows {
		tables[cfg.Candidates[k].Name].Rows = rows[k].rows()
	}
	if err != nil {
		if isInterruption(err) {
			// Keep the rows extracted so far: the caller may still
			// inspect or persist the partial tables.
			return &KeyGenResult{Tables: tables, Duration: time.Since(start)}, err
		}
		return nil, err
	}

	return &KeyGenResult{Tables: tables, Duration: time.Since(start)}, nil
}

// rowChunks accumulates one table's rows during key generation. Rows
// sit in chunks that never move, so an open instance is updated in
// place through a stable pointer, and the table receives its rows in
// one exact-size copy at the end instead of a row slice regrown (and
// every row re-copied) as it fills.
type rowChunks struct {
	chunks [][]GKRow
	n      int
}

// add stores row and returns a pointer to the stored copy, valid until
// rows is called.
func (rc *rowChunks) add(row GKRow) *GKRow {
	if len(rc.chunks) == 0 || len(rc.chunks[len(rc.chunks)-1]) == cap(rc.chunks[len(rc.chunks)-1]) {
		rc.chunks = append(rc.chunks, make([]GKRow, 0, min(max(rc.n, 64), 4096)))
	}
	last := &rc.chunks[len(rc.chunks)-1]
	*last = append(*last, row)
	rc.n++
	return &(*last)[len(*last)-1]
}

// rows returns the accumulated rows in insertion order (nil if none).
func (rc *rowChunks) rows() []GKRow {
	if rc.n == 0 {
		return nil
	}
	out := make([]GKRow, 0, rc.n)
	for _, c := range rc.chunks {
		out = append(out, c...)
	}
	return out
}

// newGKTables returns an empty GK table per candidate, keyed by
// candidate name, with the OD similarity fields resolved.
func newGKTables(cfg *config.Config) (map[string]*GKTable, error) {
	tables := make(map[string]*GKTable, len(cfg.Candidates))
	for i := range cfg.Candidates {
		c := &cfg.Candidates[i]
		fields, err := c.ODFields()
		if err != nil {
			return nil, fmt.Errorf("core: candidate %q: %w", c.Name, err)
		}
		simNames := make([]string, len(c.OD))
		for j, od := range c.OD {
			simNames[j] = od.SimFunc
		}
		tables[c.Name] = &GKTable{
			Candidate: c,
			fields:    fields,
			bounds:    similarity.FieldBounds(simNames),
		}
	}
	return tables, nil
}

// finishKeyGenSpan closes a key generation span with the rows
// extracted (even on an interruption, where partial tables remain
// inspectable) and seeds the GKRows gauge and a heap sample.
func finishKeyGenSpan(sp *obs.Span, ob *obs.Observer, kg *KeyGenResult, err error) {
	rows := 0
	if kg != nil {
		for _, t := range kg.Tables {
			rows += len(t.Rows)
		}
	}
	sp.SetAttr(obs.Int(obs.AttrRows, rows))
	if err != nil {
		sp.SetAttr(obs.Bool(obs.AttrInterrupted, true), obs.String(obs.AttrCause, err.Error()))
	}
	sp.End()
	if m := ob.Metrics(); m != nil {
		m.GKRows.Store(int64(rows))
		m.SampleHeap()
	}
}

// buildRow extracts keys and OD values for one candidate instance.
func buildRow(n *xmltree.Node, c *config.Candidate) (GKRow, error) {
	row := GKRow{EID: n.ID}

	// Raw value per referenced path, extracted once and shared between
	// key generation and the OD (the paper's "save an extra pass").
	// values is aligned with c.Paths; a candidate has a handful of
	// paths, so a linear scan by ID beats a per-row map.
	var buf [8][]string
	values := buf[:0]
	for i := range c.Paths {
		values = append(values, c.Paths[i].Path().SelectValues(n))
	}
	valuesOf := func(pid int) []string {
		for i := range c.Paths {
			if c.Paths[i].ID == pid {
				return values[i]
			}
		}
		return nil
	}
	first := func(pid int) string {
		if v := valuesOf(pid); len(v) > 0 {
			return v[0]
		}
		return ""
	}

	keys := c.CompiledKeys()
	row.Keys = make([]string, len(keys))
	for i, k := range keys {
		row.Keys[i] = k.Generate(first)
	}

	row.OD = make([][]string, len(c.OD))
	for i, od := range c.OD {
		row.OD[i] = valuesOf(od.PathID)
	}
	return row, nil
}

// plainPathTrie maps every plain candidate path to its candidate's
// index in cfg.Candidates; when two candidates share a path the later
// one wins. Both key generators match candidate instances with it.
func plainPathTrie(cfg *config.Config) *xmltree.PathTrie {
	t := xmltree.NewPathTrie()
	for i := range cfg.Candidates {
		if p := cfg.Candidates[i].XPath; isPlainPath(p) {
			t.Insert(p, i)
		}
	}
	return t
}

// isPlainPath reports whether an xpath string is a simple slash-joined
// element-name path (no predicates, wildcards, or descendant axis), so
// instance matching can follow the open-element path in a PathTrie.
func isPlainPath(p string) bool {
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '[', ']', '*', '@', '(':
			return false
		case '/':
			if i+1 < len(p) && p[i+1] == '/' {
				return false
			}
		}
	}
	return true
}
