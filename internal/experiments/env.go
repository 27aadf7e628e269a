package experiments

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// RunEnv is the operational envelope shared by every detection run of
// an experiment: the context governing cancellation and the resource
// Limits. The zero value is context.Background with no limits — the
// paper's unbounded behavior — so existing callers need no changes.
//
// Experiments sweep many configurations over generated corpora, so a
// single run's interruption aborts the whole experiment: partial
// tables would silently skew the reproduced figures. The typed cause
// (core.ErrCanceled, core.ErrDeadlineExceeded, core.ErrLimitExceeded)
// propagates out for the caller to report.
// An Observer, when set, traces and counts every detection run of the
// sweep through one shared metric set — useful to watch a paper-scale
// experiment progress and to profile where its time goes.
// PairWorkers and SimCache speed up the window sweeps; both are
// answer-preserving (identical clusters and counters), so reproduced
// accuracy figures are unaffected — only the timing columns of the
// scalability experiments change meaning (wall clock vs. single-core).
// SpillThresholdRows and SpillDir move the pass sorts of oversized
// candidates to disk (the GK tables stay in memory); the spill path is
// answer-preserving too.
type RunEnv struct {
	Ctx                context.Context
	Limits             core.Limits
	Observer           *obs.Observer
	PairWorkers        int
	SimCache           bool
	SpillThresholdRows int
	SpillDir           string
}

func (e RunEnv) context() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// Run executes one detection run under the environment, applying its
// Limits on top of the run options.
func (e RunEnv) Run(doc *xmltree.Document, cfg *config.Config, opts core.Options) (*core.Result, error) {
	opts.Limits = e.Limits
	opts.Observer = e.Observer
	opts.PairWorkers = e.PairWorkers
	opts.SimCache = e.SimCache
	opts.SpillThresholdRows = e.SpillThresholdRows
	opts.SpillDir = e.SpillDir
	return core.RunContext(e.context(), doc, cfg, opts)
}
