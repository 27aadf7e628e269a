// Package runlimit defines the resource limits and typed interruption
// causes shared by the parser, the key generators, and the detection
// engine. It sits below both xmltree and core so a single error
// vocabulary (errors.Is/As-matchable) covers every stage of a run.
package runlimit

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Limits bounds a detection run. The zero value means "unlimited" in
// every dimension, which reproduces the paper's unbounded behavior
// exactly; any field may be set independently.
type Limits struct {
	// Timeout caps the wall-clock duration of a run. Applied as a
	// context deadline by the entry points that accept Limits.
	Timeout time.Duration
	// MaxDepth caps element nesting at parse time (the root element
	// counts as depth 1). Exceeding it aborts the parse or streaming
	// key generation with a *LimitError named "max-depth".
	MaxDepth int
	// MaxNodes caps the number of document-order nodes (elements plus
	// significant text nodes, the same numbering Parse assigns IDs to).
	MaxNodes int
	// MaxRows caps the GK rows (candidate instances) recorded per
	// candidate during key generation.
	MaxRows int
	// MaxComparisons caps the distinct pair comparisons performed
	// across all sliding windows of one run, including comparisons the
	// upper-bound filter resolves without an edit-distance computation.
	MaxComparisons int
	// CheckEvery is the hot-loop iteration interval between
	// cancellation/budget checks (default 1024). Smaller values react
	// faster at slightly higher overhead; tests use 1 for determinism.
	CheckEvery int
}

// Bounded reports whether any limit besides CheckEvery is set.
func (l Limits) Bounded() bool {
	return l.Timeout > 0 || l.MaxDepth > 0 || l.MaxNodes > 0 || l.MaxRows > 0 || l.MaxComparisons > 0
}

// CheckRows enforces MaxRows for one candidate's observed row count.
func (l Limits) CheckRows(observed int) error {
	if l.MaxRows > 0 && observed > l.MaxRows {
		return &LimitError{Limit: "max-rows", Max: l.MaxRows, Observed: observed}
	}
	return nil
}

// Interruption causes. Run entry points return these (or a wrapping
// error) alongside a partial result; match with errors.Is.
var (
	// ErrCanceled reports that the run's context was canceled.
	ErrCanceled = errors.New("run canceled")
	// ErrDeadlineExceeded reports that the run's deadline (context or
	// Limits.Timeout) expired.
	ErrDeadlineExceeded = errors.New("run deadline exceeded")
	// ErrLimitExceeded is the errors.Is target every *LimitError
	// matches; the concrete error names the breached limit.
	ErrLimitExceeded = errors.New("resource limit exceeded")
)

// LimitError reports which resource limit a run breached and the value
// observed when it tripped. It matches ErrLimitExceeded via errors.Is.
type LimitError struct {
	Limit    string // "max-depth", "max-nodes", "max-rows", "max-comparisons"
	Max      int
	Observed int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("%s limit exceeded (observed %d, max %d)", e.Limit, e.Observed, e.Max)
}

// Is makes errors.Is(err, ErrLimitExceeded) true for every LimitError.
func (e *LimitError) Is(target error) bool { return target == ErrLimitExceeded }

// IsInterruption reports whether err is a graceful-degradation cause
// (cancellation, deadline, or limit breach) rather than a hard failure.
func IsInterruption(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrLimitExceeded)
}

// ContextCause translates the context's state into the typed causes
// above, or nil while the context is still live.
func ContextCause(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrDeadlineExceeded
	default:
		return ErrCanceled
	}
}

// WithTimeout derives a context carrying l.Timeout as a deadline. With
// no timeout set it returns ctx unchanged (preserving a nil Done
// channel, which lets unbounded runs skip cancellation checks
// entirely). The returned stop function must always be called.
func WithTimeout(ctx context.Context, l Limits) (context.Context, context.CancelFunc) {
	if l.Timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, l.Timeout)
}
