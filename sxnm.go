// Package sxnm is the public API of this reproduction of "XML
// Duplicate Detection Using Sorted Neighborhoods" (Puhlmann, Weis,
// Naumann — EDBT 2006). It detects duplicate elements in nested XML
// data with the Sorted XML Neighborhood Method (SXNM): per-candidate
// sort keys generated from configurable character patterns, multi-pass
// sliding windows over the sorted keys, and a bottom-up similarity
// that combines weighted object descriptions with the overlap of
// already-deduplicated descendants.
//
// Quick start:
//
//	cfg, err := sxnm.LoadConfigFile("config.xml")
//	doc, err := sxnm.ParseXMLFile("data.xml")
//	det, err := sxnm.New(cfg)
//	res, err := det.Run(doc)
//	for name, cs := range res.Clusters {
//	    fmt.Println(name, cs.NonSingletons())
//	}
//
// See the examples directory for complete programs.
package sxnm

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runlimit"
	"repro/internal/xmltree"
)

// Re-exported types. The facade aliases the internal packages' types
// so callers only import this package.
type (
	// Config is the full SXNM parameter set: candidates with PATH, OD,
	// and KEY relations plus windows and thresholds.
	Config = config.Config
	// Candidate configures one XML schema element for deduplication.
	Candidate = config.Candidate
	// PathDef, ODEntry, KeyDef, and KeyPart are the rows of the
	// configuration relations of the paper's Sec. 3.2.
	PathDef = config.PathDef
	ODEntry = config.ODEntry
	KeyDef  = config.KeyDef
	KeyPart = config.KeyPart
	// RuleKind selects the duplicate classification rule.
	RuleKind = config.RuleKind

	// Document is a parsed XML document.
	Document = xmltree.Document
	// Node is an element or text node of a Document.
	Node = xmltree.Node
	// WriteOptions control Document serialization.
	WriteOptions = xmltree.WriteOptions

	// Result is the outcome of a run: cluster sets, GK tables, stats.
	Result = core.Result
	// Options tune a run (pair observation, descendant toggles,
	// custom decision rules) and its performance envelope:
	// Options.PairWorkers parallelizes the window sweep inside each
	// key pass and Options.SimCache memoizes similarity computations —
	// both produce results byte-identical to the plain sequential run.
	Options = core.Options
	// Stats carries the per-phase timings (KG, SW, TC) of the paper's
	// scalability experiments.
	Stats = core.Stats
	// PairObservation describes one window comparison, delivered to
	// Options.PairObserver.
	PairObservation = core.PairObservation

	// ClusterSet is the per-candidate duplicate partition (Def. 1).
	ClusterSet = cluster.ClusterSet
	// Pair is an unordered pair of element IDs.
	Pair = cluster.Pair

	// Limits bounds a run: wall-clock timeout, parse-time depth and
	// node ceilings, GK rows per candidate, and window comparisons.
	// The zero value is unlimited (the paper's behavior).
	Limits = core.Limits
	// Incomplete describes how far an interrupted run got; see
	// Result.Incomplete.
	Incomplete = core.Incomplete
	// LimitError names the breached limit and the observed value; it
	// matches ErrLimitExceeded via errors.Is.
	LimitError = core.LimitError
	// PanicError reports a panic recovered while detecting a candidate
	// (PairWorkers goroutines included), carrying the candidate name
	// and stack.
	PanicError = core.PanicError
)

// Typed interruption causes carried by interrupted runs alongside the
// partial Result; match with errors.Is.
var (
	ErrCanceled         = core.ErrCanceled
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	ErrLimitExceeded    = core.ErrLimitExceeded
)

// Classification rules (see config.RuleKind).
const (
	RuleCombined = config.RuleCombined
	RuleEither   = config.RuleEither
	RuleBoth     = config.RuleBoth
)

// DefaultSimCacheSize is the per-candidate similarity cache capacity
// used when Options.SimCache is on and Options.SimCacheSize is zero.
const DefaultSimCacheSize = core.DefaultSimCacheSize

// LoadConfig reads and validates an XML configuration document.
func LoadConfig(r io.Reader) (*Config, error) {
	return config.Parse(r)
}

// LoadConfigFile reads and validates the configuration at path. Every
// error is prefixed "sxnm:" and names the file.
func LoadConfigFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sxnm: %w", err)
	}
	defer f.Close()
	cfg, err := config.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("sxnm: %s: %w", path, err)
	}
	return cfg, nil
}

// ParseXML parses an XML document from r.
func ParseXML(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseXMLWithLimits parses an XML document from r, enforcing the
// MaxDepth and MaxNodes ceilings during the token scan so hostile
// documents fail fast with a *LimitError instead of exhausting memory.
func ParseXMLWithLimits(r io.Reader, lim Limits) (*Document, error) {
	return xmltree.ParseWithLimits(r, lim)
}

// ParseXMLString parses an XML document held in a string.
func ParseXMLString(s string) (*Document, error) { return xmltree.ParseString(s) }

// ParseXMLFile parses the XML document stored at path.
func ParseXMLFile(path string) (*Document, error) { return xmltree.ParseFile(path) }

// Detector runs SXNM with a fixed configuration.
type Detector struct {
	cfg  *Config
	opts Options
}

// New validates the configuration (compiling paths, patterns, and
// keys) and returns a Detector. Candidates that declare an equational
// rule (Candidate.RuleExpr / the <rule> config element) have their
// expressions compiled here; syntax errors surface immediately. The
// configuration must not be mutated afterwards.
func New(cfg *Config) (*Detector, error) {
	return NewWithOptions(cfg, Options{})
}

// NewWithOptions is New with run options applied to every Run call. A
// FieldRule in opts takes precedence over config-declared rules.
func NewWithOptions(cfg *Config, opts Options) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, opts: opts}
	if d.opts.FieldRule == nil {
		exprs := make(map[string]string)
		for i := range cfg.Candidates {
			if cfg.Candidates[i].RuleExpr != "" {
				exprs[cfg.Candidates[i].Name] = cfg.Candidates[i].RuleExpr
			}
		}
		if len(exprs) > 0 {
			rs, err := NewRuleSet(cfg, exprs)
			if err != nil {
				return nil, err
			}
			d.opts.FieldRule = rs.Options().FieldRule
		}
	}
	return d, nil
}

// Config returns the validated configuration.
func (d *Detector) Config() *Config { return d.cfg }

// Run executes both SXNM phases over the document and returns the
// cluster sets per candidate.
func (d *Detector) Run(doc *Document) (*Result, error) {
	return d.RunContext(context.Background(), doc)
}

// RunContext is Run under a context and the Detector's Limits (set via
// NewWithOptions): the run stops cooperatively on cancellation,
// deadline expiry, or a limit breach and returns the partial Result
// (Result.Incomplete describes how far it got) together with the typed
// cause — ErrCanceled, ErrDeadlineExceeded, or a *LimitError.
func (d *Detector) RunContext(ctx context.Context, doc *Document) (*Result, error) {
	return core.RunContext(ctx, doc, d.cfg, d.opts)
}

// RunReader runs SXNM over the XML document read from r in one pass:
// GK rows are built straight from the tokens (memory bounded by the GK
// tables, not the document), then detection runs over them. The result
// carries no document, so document-dependent helpers (Deduplicate,
// Fuse, WriteClustersCSV) need Run over a parsed document instead;
// cluster sets and statistics are those of Run.
func (d *Detector) RunReader(r io.Reader) (*Result, error) {
	return d.RunReaderContext(context.Background(), r)
}

// RunReaderContext is RunReader under a context and the Detector's
// Limits. MaxDepth/MaxNodes are enforced on the fly during the token
// scan; an interrupted run returns the partial Result with
// Result.Incomplete set alongside the typed cause. Every error is
// prefixed "sxnm:".
func (d *Detector) RunReaderContext(ctx context.Context, r io.Reader) (*Result, error) {
	res, _, err := d.runTokens(ctx, r, false, d.detect)
	if err != nil {
		err = fmt.Errorf("sxnm: %w", err)
	}
	return res, err
}

// detectFunc runs the detection phase over the GK tables a scan built;
// docFP is the scan's document fingerprint, or "" when it took none.
type detectFunc func(ctx context.Context, kg *core.KeyGenResult, docFP string) (*Result, error)

// detect is the plain detectFunc: detection with the Detector's options.
func (d *Detector) detect(ctx context.Context, kg *core.KeyGenResult, _ string) (*Result, error) {
	return core.DetectContext(ctx, kg, d.cfg, d.opts)
}

// runTokens is the reader path every run over a document's bytes
// takes: one scan of r feeds the row builder and, when fingerprint is
// set, DocumentFingerprint's hash, recorded on the parse span as
// doc_fingerprint. Then detect runs over the tables; a scan cut short
// returns its partial Result without calling it. The scan is traced as
// the parse phase, and key generation within it.
func (d *Detector) runTokens(ctx context.Context, r io.Reader, fingerprint bool, detect detectFunc) (*Result, string, error) {
	ctx, stop := runlimit.WithTimeout(ctx, d.opts.Limits)
	defer stop()
	sc := xmltree.NewScanner(r, d.opts.Limits)
	var fp *checkpoint.TokenFingerprint
	if fingerprint {
		fp = checkpoint.FingerprintTokens(sc)
	}
	sp := d.opts.Observer.StartSpan(obs.SpanParse, obs.Bool(obs.AttrStream, true))
	kg, err := core.GenerateKeysScan(ctx, sc, d.cfg, d.opts.Limits, d.opts.Observer)
	var sum string
	switch {
	case err != nil:
		sp.SetAttr(obs.Bool(obs.AttrInterrupted, true), obs.String(obs.AttrCause, err.Error()))
	case fp != nil:
		sum = fp.Sum()
		sp.SetAttr(obs.String(obs.AttrDocFingerprint, sum))
	}
	sp.End()
	if err != nil {
		if runlimit.IsInterruption(err) {
			return core.PartialFromKeyGen(kg, err), "", err
		}
		return nil, "", err
	}
	res, err := detect(ctx, kg, sum)
	return res, sum, err
}

// RunFile runs SXNM over the XML document stored at path, as RunReader
// does.
func (d *Detector) RunFile(path string) (*Result, error) {
	return d.RunFileContext(context.Background(), path)
}

// RunFileContext is RunFile under a context. Every error is prefixed
// "sxnm:" and names the file; interrupted runs still return their
// partial Result.
func (d *Detector) RunFileContext(ctx context.Context, path string) (*Result, error) {
	res, _, err := d.runFile(ctx, path, false)
	return res, err
}

// RunFileFingerprint is RunFileContext that also returns the input's
// DocumentFingerprint, hashed from the tokens of the same scan (for
// run reports; it costs one SHA-256 over the document's canonical
// serialization). The fingerprint is empty when the scan did not reach
// the end of the input.
func (d *Detector) RunFileFingerprint(ctx context.Context, path string) (*Result, string, error) {
	return d.runFile(ctx, path, true)
}

func (d *Detector) runFile(ctx context.Context, path string, fingerprint bool) (*Result, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", fmt.Errorf("sxnm: %w", err)
	}
	defer f.Close()
	res, sum, err := d.runTokens(ctx, f, fingerprint, d.detect)
	if err != nil {
		return res, sum, fmt.Errorf("sxnm: %s: %w", path, err)
	}
	return res, sum, nil
}

// WriteGK runs only the key generation phase over the XML document
// read from r, building the rows straight from its tokens under the
// Detector's Limits, and serializes the GK relations (the paper's
// temporary tables) to w, so detection can later run repeatedly — e.g.
// sweeping windows and thresholds — without re-reading the XML. Load
// with RunFromGK.
func (d *Detector) WriteGK(r io.Reader, w io.Writer) error {
	kg, err := core.GenerateKeysStreamContext(context.Background(), r, d.cfg, d.opts.Limits)
	if err != nil {
		return fmt.Errorf("sxnm: %w", err)
	}
	return core.WriteGK(w, kg)
}

// RunFromGK runs the detection phase over GK relations previously
// serialized by WriteGK under the same configuration.
func (d *Detector) RunFromGK(r io.Reader) (*Result, error) {
	return d.RunFromGKContext(context.Background(), r)
}

// RunFromGKContext is RunFromGK under a context and the Detector's
// Limits applied to the detection phase.
func (d *Detector) RunFromGKContext(ctx context.Context, r io.Reader) (*Result, error) {
	kg, err := core.ReadGK(r, d.cfg)
	if err != nil {
		return nil, err
	}
	return core.DetectContext(ctx, kg, d.cfg, d.opts)
}
