package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/runlimit"
	"repro/internal/xmltree"
)

// Limits bounds a run; see runlimit.Limits. The zero value is
// unlimited and reproduces the paper's behavior exactly.
type Limits = runlimit.Limits

// Typed interruption causes, re-exported for callers that already
// import core. Match with errors.Is/As.
var (
	ErrCanceled         = runlimit.ErrCanceled
	ErrDeadlineExceeded = runlimit.ErrDeadlineExceeded
	ErrLimitExceeded    = runlimit.ErrLimitExceeded
)

// LimitError names the breached limit and the observed value.
type LimitError = runlimit.LimitError

// Phases of a run, as reported in Incomplete.Phase.
const (
	PhaseKeyGen            = "key-generation"
	PhaseSlidingWindow     = "sliding-window"
	PhaseTransitiveClosure = "transitive-closure"
)

// Incomplete records how far an interrupted run got. It is attached to
// the partial Result a canceled, timed-out, or limit-breaching run
// returns, so no completed work is discarded.
type Incomplete struct {
	// Cause is the typed interruption: ErrCanceled,
	// ErrDeadlineExceeded, or a *LimitError (match with errors.Is/As).
	Cause error
	// Phase names the stage that was cut short: PhaseKeyGen,
	// PhaseSlidingWindow, or PhaseTransitiveClosure.
	Phase string
	// Completed lists the candidates whose cluster sets are final and
	// present in Result.Clusters, in processing order.
	Completed []string
	// Interrupted lists the candidates whose detection was cut short;
	// their clusters are absent. Candidates in neither list never
	// started.
	Interrupted []string
	// KeyPass is the zero-based key pass in progress when a sliding
	// window was interrupted, -1 when not applicable.
	KeyPass int
}

// PanicError reports a panic recovered while detecting one candidate,
// including a panic on a PairWorkers goroutine, which the sweep
// re-raises on the detection loop's goroutine. The run stops and the
// panic surfaces as an ordinary error instead of crashing the caller.
type PanicError struct {
	Candidate string
	Value     any
	Stack     []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: candidate %q: panic: %v", e.Candidate, e.Value)
}

// isInterruption reports whether err is a graceful-degradation cause.
func isInterruption(err error) bool { return runlimit.IsInterruption(err) }

// interruptError carries the phase coordinates of an interruption from
// detectCandidate up to Detect, which turns them into an Incomplete.
type interruptError struct {
	cause error
	phase string
	pass  int // key pass, -1 when not applicable
}

func (e *interruptError) Error() string { return e.cause.Error() }
func (e *interruptError) Unwrap() error { return e.cause }

// defaultCheckEvery is the hot-loop iteration interval between
// cancellation/budget checks. At ~1µs per pair comparison this bounds
// the reaction latency to about a millisecond while keeping the check
// amortized to a fraction of a percent.
const defaultCheckEvery = 1024

// budget is the per-run cancellation and resource accounting shared by
// every phase (and every parallel worker) of one run. All methods are
// safe for concurrent use.
type budget struct {
	ctx         context.Context
	lim         Limits
	every       int
	active      bool // any cancellation source or comparison cap present
	comparisons atomic.Int64
}

func newBudget(ctx context.Context, lim Limits) *budget {
	b := &budget{ctx: ctx, lim: lim, every: lim.CheckEvery}
	if b.every <= 0 {
		b.every = defaultCheckEvery
	}
	// Uncancellable, unbounded runs (nil Done channel, no comparison
	// cap) skip polling entirely, so plain Run keeps zero overhead.
	b.active = ctx.Done() != nil || lim.MaxComparisons > 0
	return b
}

// poll checks for interruption every `every` iterations of a hot loop;
// n is the caller's running iteration counter.
func (b *budget) poll(n int) error {
	if !b.active || n%b.every != 0 {
		return nil
	}
	return b.check()
}

// check performs the interruption test immediately.
func (b *budget) check() error {
	if err := runlimit.ContextCause(b.ctx); err != nil {
		return err
	}
	if max := b.lim.MaxComparisons; max > 0 {
		if got := int(b.comparisons.Load()); got > max {
			return &LimitError{Limit: "max-comparisons", Max: max, Observed: got}
		}
	}
	return nil
}

// addComparison charges one pair comparison against the budget and
// reports the breach exactly when the cap is crossed.
func (b *budget) addComparison() error {
	if max := b.lim.MaxComparisons; max > 0 {
		if got := b.comparisons.Add(1); got > int64(max) {
			return &LimitError{Limit: "max-comparisons", Max: max, Observed: int(got)}
		}
	}
	return nil
}

// checkDocLimits enforces MaxDepth/MaxNodes on an already-materialized
// document, mirroring the parse-time checks for callers that hand Run
// an in-memory tree (generators, tests) rather than parsed bytes. Only
// walked when a cap is actually set.
func checkDocLimits(doc *xmltree.Document, lim Limits) error {
	if lim.MaxDepth <= 0 && lim.MaxNodes <= 0 {
		return nil
	}
	nodes, maxDepth := 0, 0
	var walk func(n *xmltree.Node, depth int)
	walk = func(n *xmltree.Node, depth int) {
		nodes++
		if n.Kind == xmltree.ElementNode {
			if depth > maxDepth {
				maxDepth = depth
			}
			for _, ch := range n.Children {
				walk(ch, depth+1)
			}
		}
	}
	walk(doc.Root, 1)
	if lim.MaxDepth > 0 && maxDepth > lim.MaxDepth {
		return &LimitError{Limit: "max-depth", Max: lim.MaxDepth, Observed: maxDepth}
	}
	if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
		return &LimitError{Limit: "max-nodes", Max: lim.MaxNodes, Observed: nodes}
	}
	return nil
}

// PartialFromKeyGen wraps the tables of an interrupted key generation
// into a Result whose Incomplete names the cause, so callers composing
// the phases themselves (the facade's streaming entry point) degrade
// the same way Run does.
func PartialFromKeyGen(kg *KeyGenResult, cause error) *Result {
	res := &Result{
		Clusters: map[string]*cluster.ClusterSet{},
		Stats:    Stats{Candidates: map[string]*CandidateStats{}},
		Incomplete: &Incomplete{
			Cause:   cause,
			Phase:   PhaseKeyGen,
			KeyPass: -1,
		},
	}
	if kg != nil {
		res.Tables = kg.Tables
		res.Stats.KeyGen = kg.Duration
	}
	return res
}
