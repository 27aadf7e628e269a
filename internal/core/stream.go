package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/runlimit"
	"repro/internal/xmltree"
)

// GenerateKeysStream is the streaming variant of GenerateKeys: it
// reads the document token by token with the xmltree.Scanner that
// also backs xmltree.Parse, and only materializes the subtree of the
// candidate instance currently open, so memory stays bounded by the
// largest candidate subtree instead of the whole document — the paper
// positions SXNM for "large amounts of data", and phase 1 is a single
// pass by design (Sec. 3.3). Elements outside every candidate cost no
// allocation: the scanner yields them as views into its buffer, and
// candidate matching advances a path-trie position per open element.
//
// Element IDs assigned to candidate instances match GenerateKeys
// exactly (the scanner numbers elements and significant text nodes as
// the DOM does, merged text included), so the two key generators are
// interchangeable; a property test asserts table equality.
//
// Restriction: candidate paths must be plain element paths (no //, *,
// or predicates), because match decisions must be made on the open-tag
// stack before the subtree is read. Configurations violating this are
// rejected with an error; use GenerateKeys for them.
func GenerateKeysStream(r io.Reader, cfg *config.Config) (*KeyGenResult, error) {
	return GenerateKeysStreamContext(context.Background(), r, cfg, Limits{})
}

// GenerateKeysStreamContext is GenerateKeysStream under a context and
// limits. Because the stream *is* the parse, it rejects exactly what
// xmltree.ParseWithLimits rejects, lim.MaxDepth and lim.MaxNodes are
// enforced on the fly by the same scanner, lim.MaxRows caps rows per
// candidate, and cancellation is polled every few tokens. On
// interruption the partial KeyGenResult is returned together with the
// typed cause.
func GenerateKeysStreamContext(ctx context.Context, r io.Reader, cfg *config.Config, lim Limits) (*KeyGenResult, error) {
	return GenerateKeysStreamObserved(ctx, r, cfg, lim, nil)
}

// GenerateKeysStreamObserved is GenerateKeysStreamContext with the
// phase traced like GenerateKeysObserved; the span carries an
// additional stream=true attribute.
func GenerateKeysStreamObserved(ctx context.Context, r io.Reader, cfg *config.Config, lim Limits, ob *obs.Observer) (kgOut *KeyGenResult, errOut error) {
	start := time.Now()
	if !ob.Enabled() {
		ob = nil
	}
	if ob != nil {
		sp := ob.StartSpan(obs.SpanKeyGen,
			obs.Int("candidates", len(cfg.Candidates)), obs.Bool(obs.AttrStream, true))
		defer func() { finishKeyGenSpan(sp, ob, kgOut, errOut) }()
	}
	ctx, stop := runlimit.WithTimeout(ctx, lim)
	defer stop()
	bud := newBudget(ctx, lim)

	for _, c := range cfg.Candidates {
		if !isPlainPath(c.XPath) {
			return nil, fmt.Errorf("core: streaming key generation requires plain candidate paths; %q uses predicates, wildcards, or //", c.XPath)
		}
	}
	tables, err := newGKTables(cfg)
	if err != nil {
		return nil, err
	}
	plain := plainPathTrie(cfg)

	// The scanner numbers nodes exactly as xmltree.Parse does and
	// enforces lim.MaxDepth and lim.MaxNodes on that numbering.
	sc := xmltree.NewScanner(r, lim)

	// at holds the path-trie position of every open element; a nil
	// entry means no candidate path continues below that element.
	at := []*xmltree.PathNode{plain.Root()}

	// open tracks the open candidate instances, outermost first. Each
	// one's subtree is built with b (the outermost instance roots the
	// tree, nested ones are kept inside it so the outer instance's
	// relative paths can reach into them); desc accumulates the
	// descendant EIDs observed so far, keyed by candidate name, which
	// are attached to the row when the instance closes.
	type openInstance struct {
		cand int // index in cfg.Candidates
		root *xmltree.Node
		desc map[string][]int
	}
	var open []openInstance
	var b xmltree.Builder
	rows := make([]rowChunks, len(cfg.Candidates))

	// result hands the rows accumulated so far to their tables; partial
	// returns them together with the typed interruption cause,
	// preserving completed work.
	result := func() *KeyGenResult {
		for k := range rows {
			tables[cfg.Candidates[k].Name].Rows = rows[k].rows()
		}
		return &KeyGenResult{Tables: tables, Duration: time.Since(start)}
	}
	partial := func(cause error) (*KeyGenResult, error) { return result(), cause }

	tokens := 0
	for {
		kind, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if isInterruption(err) {
				return partial(err)
			}
			return nil, fmt.Errorf("core: stream: %w", err)
		}
		tokens++
		if err := bud.poll(tokens); err != nil {
			return partial(err)
		}
		switch kind {
		case xmltree.StartToken:
			node := at[len(at)-1].Child(sc.Name())
			at = append(at, node)
			k := node.Value()
			if len(open) == 0 && k < 0 {
				continue // outside every candidate: nothing to build
			}
			e := b.Start(sc)
			if k >= 0 {
				open = append(open, openInstance{cand: k, root: e})
			}
		case xmltree.EndToken:
			at = at[:len(at)-1]
			if len(open) == 0 {
				continue
			}
			e := b.End()
			inst := open[len(open)-1]
			if e != inst.root {
				continue
			}
			open = open[:len(open)-1]
			c := &cfg.Candidates[inst.cand]
			if err := lim.CheckRows(rows[inst.cand].n + 1); err != nil {
				return partial(err)
			}
			row, err := buildRow(e, c)
			if err != nil {
				return nil, err
			}
			row.Desc = inst.desc
			rows[inst.cand].add(row)
			// Register with the nearest open candidate.
			if len(open) > 0 {
				parent := &open[len(open)-1]
				if parent.desc == nil {
					parent.desc = make(map[string][]int, 2)
				}
				parent.desc[c.Name] = append(parent.desc[c.Name], row.EID)
			}
		case xmltree.TextToken:
			if len(open) > 0 {
				b.Text(sc)
			}
		}
	}
	return result(), nil
}
