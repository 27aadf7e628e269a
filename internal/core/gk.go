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

// GenerateKeys performs the key generation phase (Sec. 3.3) over a
// parsed document: for every candidate instance it generates all
// defined keys, extracts the object description values, and records
// which candidate instances are nested under which (via the nearest
// candidate ancestor, mirroring the extracted candidate trees of
// Fig. 3(b)). It replays the tree as the element and text events
// GenerateKeysStream reads from tokens, into the same row builder, so
// the two produce identical tables.
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

	b, err := newRowBuilder(cfg, lim)
	if err != nil {
		return nil, err
	}
	visited := 0
	var walk func(n *xmltree.Node) error
	walk = func(n *xmltree.Node) error {
		visited++
		if err := bud.poll(visited); err != nil {
			return err
		}
		if err := b.startNode(n); err != nil {
			return err
		}
		for _, ch := range n.Children {
			if ch.Kind == xmltree.TextNode {
				b.textString(ch.Data)
			} else if err := walk(ch); err != nil {
				return err
			}
		}
		b.end()
		return nil
	}
	return b.result(start, walk(doc.Root))
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
