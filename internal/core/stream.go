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
// also backs xmltree.Parse and builds every row straight from the
// tokens, so memory holds the GK tables and the open-tag stack, never
// a document or a candidate subtree — the paper positions SXNM for
// "large amounts of data", and phase 1 is a single pass by design
// (Sec. 3.3). Every candidate and relative path of the xpath subset
// is decided on the open-tag stack (see rowBuilder), so every valid
// configuration streams.
//
// Element IDs match GenerateKeys exactly (the scanner numbers elements
// and significant text nodes as the DOM does, merged text included),
// and GenerateKeys replays a tree into the same row builder, so the
// two produce identical tables.
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
func GenerateKeysStreamObserved(ctx context.Context, r io.Reader, cfg *config.Config, lim Limits, ob *obs.Observer) (*KeyGenResult, error) {
	return GenerateKeysScan(ctx, xmltree.NewScanner(r, lim), cfg, lim, ob)
}

// GenerateKeysScan is GenerateKeysStreamObserved over a scanner the
// caller made, for a caller that also reads the tokens — to
// fingerprint the document in the same pass, say. The scanner must be
// positioned at the start of the document and made under the same
// lim.
func GenerateKeysScan(ctx context.Context, sc *xmltree.Scanner, cfg *config.Config, lim Limits, ob *obs.Observer) (kgOut *KeyGenResult, errOut error) {
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

	b, err := newRowBuilder(cfg, lim)
	if err != nil {
		return nil, err
	}
	for tokens := 1; ; tokens++ {
		kind, err := sc.Next()
		if err == io.EOF {
			return b.result(start, nil)
		}
		if err != nil {
			if isInterruption(err) {
				return b.result(start, err)
			}
			return nil, fmt.Errorf("core: stream: %w", err)
		}
		if err := bud.poll(tokens); err != nil {
			return b.result(start, err)
		}
		switch kind {
		case xmltree.StartToken:
			err = b.startScan(sc)
		case xmltree.EndToken:
			b.end()
		case xmltree.TextToken:
			b.textBytes(sc.Text())
		}
		if err != nil {
			return b.result(start, err)
		}
	}
}
