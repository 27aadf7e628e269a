package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/extsort"
	"repro/internal/obs"
	"repro/internal/runlimit"
	"repro/internal/similarity"
	"repro/internal/xmltree"
)

// PairObservation describes one window comparison; experiments use it
// for false-positive analysis and comparison counting.
type PairObservation struct {
	Candidate string
	KeyIndex  int // pass (key) during which the pair was first compared
	A, B      int // element IDs, A < B
	// ODSim is the exact Def. 2 aggregate for fully compared pairs.
	// For pairs decided early by the Sec. 5 filter (Filtered, or a
	// duplicate short-circuited by the pessimistic bound) it is a
	// deterministic bound on the exact value instead: an upper bound
	// when Filtered, a lower bound for a short-circuited duplicate.
	ODSim     float64
	DescSim   float64
	HasDesc   bool
	Duplicate bool
	// Filtered marks pairs the Sec. 5 comparison filter skipped
	// (counted in Stats.FilteredOut rather than Stats.Comparisons);
	// such pairs are never duplicates.
	Filtered bool
}

// Options tune a detection run.
type Options struct {
	// PairObserver, when non-nil, is invoked for every distinct pair
	// comparison performed inside sliding windows.
	PairObserver func(PairObservation)
	// DisableDescendants globally ignores descendant information, as
	// in the OD-only runs of Experiment set 3. Per-candidate
	// UseDescendants still applies when this is false.
	DisableDescendants bool
	// FieldRule, when non-nil, replaces the built-in threshold rules
	// with a per-field equational theory — the hook the paper's
	// relational SNM uses and SXNM is "ready for" (Sec. 5). It receives
	// the per-OD-field similarities (similarity.FieldAbsent marks fields
	// missing on both sides) and the descendant similarity, and decides
	// duplicate-ness.
	FieldRule func(c *config.Candidate, fieldSims []float64, descSim float64, hasDesc bool) bool
	// UseFilter enables the threshold-aware comparison fast path of
	// Sec. 5 (see fastpath.go): precomputed per-row sketches, a
	// frequency-histogram bound that prunes whole pairs, banded
	// edit distance with a threshold-derived cut-off, and early
	// termination of the weighted sum in both directions. Duplicate
	// verdicts, clusters, Stats, and checkpoint streams are
	// byte-identical to the unfiltered run; skipped pairs count in
	// Stats.FilteredOut and report a deterministic upper bound as
	// their ODSim. Disabled automatically when a FieldRule is set (the
	// bounds only understand the built-in rules).
	UseFilter bool
	// PairWorkers parallelizes the window sweep inside each key pass,
	// the only parallelism in detection (candidates run one after
	// another in bottom-up order): the pair stream is batched and
	// compared on this many goroutines, with verdicts merged back in
	// window order. Every observable — clusters, Stats, spans,
	// checkpoints, PairObserver calls — is byte-identical to the
	// sequential run (the differential suite in internal/core proves
	// it). 0 (the zero value) runs the plain
	// sequential loop; 1 runs the batching machinery on one worker;
	// negative means one worker per available CPU (the plain loop when
	// only one CPU is available).
	PairWorkers int
	// SimCache memoizes similarity computations per candidate, shared
	// across that candidate's key passes: value-pair scores for the
	// Def. 2 OD fields (LRU-bounded) and interned descendant cluster-ID
	// sets so the Def. 3 overlap becomes a set-ID comparison. Every
	// similarity function is pure, so results are byte-identical with
	// the cache on or off; hit/miss/eviction counters surface through
	// the Observer's metrics and report, never through Stats.
	SimCache bool
	// SimCacheSize bounds the value-pair entries held per candidate;
	// 0 means DefaultSimCacheSize. Ignored unless SimCache is set.
	SimCacheSize int
	// SimCacheFor, when non-nil and SimCache is set, supplies the memo
	// cache for a candidate instead of constructing a fresh one — the
	// hook long-lived services use to share a warm cache across runs of
	// the same configuration. The caller must only ever hand back a
	// cache previously used for the same (configuration, candidate)
	// pair: value-pair entries are keyed by OD field index, so caches
	// must never cross configurations. Similarity functions are pure,
	// so a warm cache changes CPU time and the obs counters only, never
	// results. Returning nil falls back to a fresh per-run cache.
	SimCacheFor func(candidate string) *similarity.Cache
	// SpillThresholdRows moves pass sorts to disk: candidates whose GK
	// table exceeds this many rows sort each key pass with an external
	// merge sort — bounded in-memory runs spilled to checksummed files
	// under SpillDir, k-way merged back — and the sliding window
	// consumes the merged stream. That bounds the pass sort's order
	// slice and the value sketches, not the run: key generation still
	// builds every GK table whole in memory, so resident memory still
	// grows with the input (DESIGN.md §12 has the measurements). Each
	// pass removes its own run files when it ends. Every observable
	// (clusters, Stats, checkpoints, PairObserver calls, interrupted
	// partial results) is byte-identical to the in-memory path; the
	// differential suite in internal/core proves it. 0 (the zero value)
	// keeps every pass fully in memory — the paper's behavior. Limits
	// apply unchanged, MaxRows included.
	SpillThresholdRows int
	// SpillDir receives the run files of the pass in flight. Empty
	// means a private temp directory, removed when the run ends. A
	// SpillDir serves one run at a time: a run's first spill deletes
	// every run file it finds there as a killed process's leftover.
	SpillDir string
	// SpillFS, when non-nil, replaces the real filesystem under the
	// spill layer — the fault-injection hook for torn-write/short-read
	// testing. Requires SpillDir to be set when non-nil.
	SpillFS extsort.FS
	// spill is the run-level spill state DetectContext derives from the
	// three fields above; nil when spilling is off.
	spill *spillState
	// Limits bounds the run's wall-clock time and resource use; the
	// zero value is unlimited. On a breach the run stops gracefully,
	// returning the partial Result (with Result.Incomplete describing
	// how far it got) alongside the typed cause.
	Limits Limits
	// Checkpointer, when non-nil, receives durable-progress callbacks:
	// per-candidate pass progress and each finished candidate's
	// cluster set. An error from a
	// callback aborts the run (except the best-effort flush during an
	// interruption, whose error is dropped).
	Checkpointer Checkpointer
	// Resume, when non-nil, seeds detection with a prior run's
	// completed candidates and mid-candidate pass progress. Resumed
	// cluster sets must stem from the same GK tables and configuration.
	Resume *ResumeState
	// Observer, when non-nil and enabled, receives tracing spans
	// (key generation, each candidate, each key pass, sliding window,
	// transitive closure) and live metrics from every phase. A nil or
	// disabled observer costs one pointer test per run — the hot loops
	// are untouched — so leaving it unset reproduces the paper's
	// performance exactly.
	Observer *obs.Observer
}

// CandidateStats holds per-candidate phase measurements.
type CandidateStats struct {
	Rows              int
	Comparisons       int // distinct similarity computations
	WindowPairs       int // window pair slots, including repeats across passes
	FilteredOut       int // comparisons skipped by the upper-bound filter
	DuplicatePairs    int // distinct pairs classified duplicate (pre-closure)
	Clusters          int
	NonSingleton      int
	SlidingWindow     time.Duration
	TransitiveClosure time.Duration
}

// Stats aggregates the phase measurements the paper reports in
// Experiment set 2: key generation (KG), sliding window (SW),
// transitive closure (TC), and duplicate detection (DD = SW + TC).
//
// SlidingWindow and TransitiveClosure sum the per-candidate elapsed
// times of those phases. Candidates run one after another, so the sums
// are elapsed time, not CPU time: PairWorkers goroutines add CPU inside
// a pass without adding to them. DetectionWall is the elapsed time of
// the whole detection phase, so it also counts the work outside the
// two phases, such as the candidate order and CandidateDone writes.
type Stats struct {
	KeyGen            time.Duration
	SlidingWindow     time.Duration // elapsed, summed over candidates
	TransitiveClosure time.Duration // elapsed, summed over candidates
	DetectionWall     time.Duration // elapsed time of the detection phase
	Comparisons       int
	FilteredOut       int
	DuplicatePairs    int
	Candidates        map[string]*CandidateStats
}

// DuplicateDetection returns SW + TC, the paper's DD measure: the
// elapsed time of the two phases, summed over candidates.
func (s *Stats) DuplicateDetection() time.Duration {
	return s.SlidingWindow + s.TransitiveClosure
}

// Result is the outcome of a full SXNM run: one cluster set per
// candidate (Def. 1), the GK tables, and the phase statistics.
// Incomplete is nil for a run that finished; an interrupted run
// (cancellation, deadline, or resource limit) returns the work
// completed so far with Incomplete describing the interruption.
type Result struct {
	Clusters   map[string]*cluster.ClusterSet
	Tables     map[string]*GKTable
	Stats      Stats
	Incomplete *Incomplete
}

// Run executes SXNM over the document: key generation, then bottom-up
// multi-pass sliding-window duplicate detection with transitive
// closure per candidate. The configuration must be validated.
func Run(doc *xmltree.Document, cfg *config.Config, opts Options) (*Result, error) {
	return RunContext(context.Background(), doc, cfg, opts)
}

// RunContext is Run under a context and opts.Limits: the run stops
// cooperatively on cancellation, deadline expiry, or a limit breach.
// It then returns the partial Result (never nil on interruption, with
// Result.Incomplete set) together with the typed cause — ErrCanceled,
// ErrDeadlineExceeded, or a *LimitError, matchable via errors.Is/As.
// An uninterrupted run returns results identical to Run.
func RunContext(ctx context.Context, doc *xmltree.Document, cfg *config.Config, opts Options) (*Result, error) {
	ctx, stop := runlimit.WithTimeout(ctx, opts.Limits)
	defer stop()
	kg, err := GenerateKeysObserved(ctx, doc, cfg, opts.Limits, opts.Observer)
	if err != nil {
		if isInterruption(err) {
			return PartialFromKeyGen(kg, err), err
		}
		return nil, err
	}
	return DetectContext(ctx, kg, cfg, opts)
}

// Detect executes the duplicate detection phase over previously
// generated keys; splitting it from Run lets benchmarks time the
// phases separately.
func Detect(kg *KeyGenResult, cfg *config.Config, opts Options) (*Result, error) {
	return DetectContext(context.Background(), kg, cfg, opts)
}

// DetectContext is Detect with the cooperative cancellation and
// resource budget of RunContext applied to the detection phase.
func DetectContext(ctx context.Context, kg *KeyGenResult, cfg *config.Config, opts Options) (*Result, error) {
	ctx, stop := runlimit.WithTimeout(ctx, opts.Limits)
	defer stop()
	bud := newBudget(ctx, opts.Limits)

	// Normalize the observer once: a disabled observer is treated like
	// a nil one everywhere downstream, so the atomic enabled flag is
	// tested exactly once per run.
	if !opts.Observer.Enabled() {
		opts.Observer = nil
	}
	ob := opts.Observer
	m := ob.Metrics()

	// The smallspill build tag forces a tiny threshold so the whole
	// test suite exercises the spill path; an explicit caller choice
	// always wins.
	if opts.SpillThresholdRows == 0 && forcedSpillThreshold > 0 {
		opts.SpillThresholdRows = forcedSpillThreshold
	}
	if opts.SpillThresholdRows > 0 {
		st := newSpillState(opts, m)
		opts.spill = st
		defer st.cleanup()
	}

	res := &Result{
		Clusters: make(map[string]*cluster.ClusterSet, len(cfg.Candidates)),
		Tables:   kg.Tables,
		Stats: Stats{
			KeyGen:     kg.Duration,
			Candidates: make(map[string]*CandidateStats, len(cfg.Candidates)),
		},
	}
	var resumedClusters map[string]*cluster.ClusterSet
	var resumedProgress map[string]*CandidateProgress
	if opts.Resume != nil {
		resumedClusters = opts.Resume.Clusters
		resumedProgress = opts.Resume.Progress
	}

	detStart := time.Now()
	detSpan := ob.StartSpan(obs.SpanDetect)
	defer detSpan.End()
	defer func() { res.Stats.DetectionWall = time.Since(detStart) }()
	if m != nil {
		m.MarkStart()
		m.CandidatesTotal.Store(int64(len(cfg.Candidates)))
		var rows, expected int64
		for i := range cfg.Candidates {
			c := &cfg.Candidates[i]
			t := kg.Tables[c.Name]
			if t == nil {
				continue
			}
			rows += int64(len(t.Rows))
			if _, done := resumedClusters[c.Name]; done {
				continue
			}
			passes := len(c.CompiledKeys())
			if prog := resumedProgress[c.Name]; prog != nil {
				passes -= prog.NextPass
			}
			if passes > 0 {
				expected += int64(passes) * estWindowPairs(len(t.Rows), c.Window)
			}
		}
		m.GKRows.Store(rows)
		m.ExpectedWindowPairs.Store(expected)
	}
	if ob != nil && opts.Resume != nil {
		var seeded int64
		for _, prog := range resumedProgress {
			seeded += int64(len(prog.Pairs))
		}
		if m != nil {
			m.ResumedCandidates.Store(int64(len(resumedClusters)))
			m.ResumedPairs.Store(seeded)
		}
		ob.Event(obs.EventResume,
			obs.Int(obs.AttrCompleted, len(resumedClusters)),
			obs.Int64(obs.AttrResumedPairs, seeded))
	}

	// detectOne runs one candidate inside its span, or adopts the
	// cluster set a resumed run already completed (resumed is then
	// true). A panic is recovered into a *PanicError naming the
	// candidate; a PairWorkers panic is re-raised on this goroutine by
	// the sweeper, so it lands here too.
	detectOne := func(cand *config.Candidate) (cs *cluster.ClusterSet, cstats *CandidateStats, resumed bool, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Candidate: cand.Name, Value: r, Stack: debug.Stack()}
			}
		}()
		t := kg.Tables[cand.Name]
		if t == nil {
			return nil, nil, false, fmt.Errorf("core: no GK table for candidate %q", cand.Name)
		}
		if cs, ok := resumedClusters[cand.Name]; ok {
			// Completed by the checkpointed run being resumed: adopt the
			// cluster set without re-detecting. Comparison stats stay
			// zero — that work happened in the earlier process.
			if sp := detSpan.Child(obs.SpanCandidate,
				obs.String(obs.AttrCandidate, cand.Name),
				obs.Int(obs.AttrRows, len(t.Rows)),
				obs.Bool(obs.AttrResumed, true),
				obs.Int(obs.AttrClusters, cs.Len()),
				obs.Int(obs.AttrNonSingleton, len(cs.NonSingletons())),
			); sp != nil {
				sp.End()
			}
			return cs, &CandidateStats{
				Rows:         len(t.Rows),
				Clusters:     cs.Len(),
				NonSingleton: len(cs.NonSingletons()),
			}, true, nil
		}
		candSpan := detSpan.Child(obs.SpanCandidate,
			obs.String(obs.AttrCandidate, cand.Name),
			obs.Int(obs.AttrRows, len(t.Rows)),
			obs.Int(obs.AttrWindow, cand.Window),
			obs.Int(obs.AttrKeys, len(cand.CompiledKeys())))
		if prog := resumedProgress[cand.Name]; prog != nil {
			candSpan.SetAttr(obs.Int(obs.AttrNextPass, prog.NextPass))
		}
		cs, cstats, err = detectCandidate(bud, t, res.Clusters, resumedProgress[cand.Name], opts, candSpan)
		if cstats != nil {
			candSpan.SetAttr(
				obs.Int(obs.AttrWindowPairs, cstats.WindowPairs),
				obs.Int(obs.AttrComparisons, cstats.Comparisons),
				obs.Int(obs.AttrFilteredOut, cstats.FilteredOut),
				obs.Int(obs.AttrDuplicatePairs, cstats.DuplicatePairs),
				obs.Int(obs.AttrClusters, cstats.Clusters),
				obs.Int(obs.AttrNonSingleton, cstats.NonSingleton),
				obs.Int64(obs.AttrSWNanos, int64(cstats.SlidingWindow)),
				obs.Int64(obs.AttrTCNanos, int64(cstats.TransitiveClosure)))
		}
		if err != nil && isInterruption(err) {
			candSpan.SetAttr(obs.Bool(obs.AttrInterrupted, true))
		}
		candSpan.End()
		return cs, cstats, false, err
	}

	// Each candidate runs, is accounted and is checkpointed in turn.
	// Panics and hard errors abort the run; an interruption keeps the
	// candidates completed before it.
	var completed []string
	for _, cand := range DetectionOrder(kg, cfg) {
		cs, cstats, resumed, err := detectOne(cand)
		if err != nil {
			if !isInterruption(err) {
				return nil, err
			}
			var intr *interruptError
			if !errors.As(err, &intr) {
				intr = &interruptError{cause: err, phase: PhaseSlidingWindow, pass: -1}
			}
			res.Incomplete = &Incomplete{
				Cause:       intr.cause,
				Phase:       intr.phase,
				Completed:   completed,
				Interrupted: []string{cand.Name},
				KeyPass:     intr.pass,
			}
			if ob != nil {
				ob.Event(obs.EventInterrupted,
					obs.String(obs.AttrPhase, intr.phase),
					obs.String(obs.AttrCause, intr.cause.Error()))
			}
			return res, intr.cause
		}
		res.Clusters[cand.Name] = cs
		res.Stats.Candidates[cand.Name] = cstats
		res.Stats.SlidingWindow += cstats.SlidingWindow
		res.Stats.TransitiveClosure += cstats.TransitiveClosure
		res.Stats.Comparisons += cstats.Comparisons
		res.Stats.FilteredOut += cstats.FilteredOut
		res.Stats.DuplicatePairs += cstats.DuplicatePairs
		completed = append(completed, cand.Name)
		if m != nil {
			m.CandidatesDone.Add(1)
		}
		if opts.Checkpointer != nil && !resumed {
			if cerr := opts.Checkpointer.CandidateDone(cand.Name, cs); cerr != nil {
				return nil, fmt.Errorf("core: checkpoint candidate %q: %w", cand.Name, cerr)
			}
		}
	}
	return res, nil
}

// detectCandidate runs the multi-pass sliding window (Sec. 3.4,
// "general duplicate detection process") for one candidate and closes
// the detected pairs into a cluster set. The budget's cancellation and
// comparison caps are polled every few iterations of the hot loops; an
// interruption surfaces as an *interruptError naming the phase.
//
// A non-nil prog resumes mid-candidate: passes before prog.NextPass
// are skipped and prog.Pairs seed both the duplicate pair list and the
// compared-pair set. Pairs compared but not classified duplicates by
// the earlier run are re-compared when windows revisit them; the
// classification is deterministic, so the resulting cluster set is
// identical to an uninterrupted run (only comparison counts differ).
func detectCandidate(bud *budget, t *GKTable, clusters map[string]*cluster.ClusterSet, prog *CandidateProgress, opts Options, candSpan *obs.Span) (*cluster.ClusterSet, *CandidateStats, error) {
	cand := t.Candidate
	cstats := &CandidateStats{Rows: len(t.Rows)}
	m := opts.Observer.Metrics() // nil when no (enabled) observer

	// The similarity memo is per candidate and shared across its key
	// passes — multi-pass windows revisit pairs, and dirty corpora
	// repeat values. Purity of the similarity functions makes memoized
	// results bit-identical to direct computation, so nothing observable
	// changes; only the obs cache counters do.
	var cache *similarity.Cache
	if opts.SimCache {
		if opts.SimCacheFor != nil {
			cache = opts.SimCacheFor(cand.Name)
		}
		if cache == nil {
			cache = similarity.NewCache(opts.SimCacheSize)
		}
	}
	// A provider-supplied cache arrives warm: baseline its counters so
	// this run's metrics and spans report deltas, not history.
	baseCache := cache.Stats()

	swStart := time.Now()
	useDesc := cand.DescendantsEnabled() && !opts.DisableDescendants

	// External-sort path: a table larger than the spill threshold
	// sorts each pass externally and streams the rows in; descendant
	// resolution then happens per decoded row instead of across the
	// resident table (same function, same results).
	// The threshold-aware fast path only serves the built-in decision
	// rules; a FieldRule consumes exact similarities, never bounds.
	fastFilter := opts.UseFilter && opts.FieldRule == nil

	var spiller *candSpiller
	if st := opts.spill; st != nil && len(t.Rows) > st.threshold {
		spiller = newCandSpiller(st, t, useDesc, clusters, cache)
		spiller.sketch = fastFilter
	}
	if useDesc && spiller == nil {
		resolveDescClusters(t, clusters)
		if cache != nil {
			internDescSets(t, cache)
		}
	}
	if fastFilter && spiller == nil {
		// Precompute the per-row value sketches once, before the sweep:
		// window comparisons then never re-normalize or re-decode a
		// value. Spilled runs sketch per decoded row instead.
		ensureSketches(t)
	}

	keys := cand.CompiledKeys()
	w := cand.Window
	var pairs []cluster.Pair
	startPass := 0
	if prog != nil {
		startPass = prog.NextPass
		if startPass > len(keys) {
			return nil, nil, fmt.Errorf("core: candidate %q: resume pass %d beyond %d keys",
				cand.Name, startPass, len(keys))
		}
	}
	// The compared set deduplicates pairs across passes only: within
	// one pass every window pair is distinct, since a table's EIDs are.
	// So a pass looks pairs up only once an earlier pass (or a resumed
	// run's seed) may have compared them, and records them only while a
	// later pass follows; a one-key candidate never hashes a pair.
	// Sizing the set for the window slots of the recording passes
	// spares the rehashes of a growing set (repeats across passes only
	// leave it roomier).
	seeded := prog != nil && len(prog.Pairs) > 0
	size := int(estWindowPairs(len(t.Rows), w)) * max(len(keys)-startPass-1, 0)
	if prog != nil {
		size += len(prog.Pairs)
	}
	compared := make(map[uint64]struct{}, size)
	if prog != nil {
		pairs = append(pairs, prog.Pairs...)
		for _, p := range prog.Pairs {
			compared[packPair(p.A, p.B)] = struct{}{}
		}
	}
	// flush persists the pairs found so far, so a later resume can
	// restart at key pass next. Best-effort on the interruption path:
	// the typed cause wins over a checkpoint write failure.
	flush := func(next int) {
		if opts.Checkpointer != nil {
			_ = opts.Checkpointer.Progress(cand.Name, next, pairs)
		}
	}

	// Observability: deltas since the last flush, pushed to the shared
	// metric set at pass boundaries and every few thousand window pairs
	// so a mid-pass Snapshot stays fresh without touching an atomic per
	// pair. flushed* hold the values already accounted for.
	var odCalls, descCalls int
	var flushed CandidateStats
	var flushedDups, flushedOD, flushedDesc int
	flushedCache := baseCache
	flushObs := func() {
		if m == nil {
			return
		}
		m.WindowPairs.Add(int64(cstats.WindowPairs - flushed.WindowPairs))
		m.Comparisons.Add(int64(cstats.Comparisons - flushed.Comparisons))
		m.FilteredOut.Add(int64(cstats.FilteredOut - flushed.FilteredOut))
		m.DuplicatePairs.Add(int64(len(pairs) - flushedDups))
		m.ODSimCalls.Add(int64(odCalls - flushedOD))
		m.DescSimCalls.Add(int64(descCalls - flushedDesc))
		flushed = *cstats
		flushedDups, flushedOD, flushedDesc = len(pairs), odCalls, descCalls
		if cache != nil {
			st := cache.Stats()
			m.SimCacheHits.Add(st.Hits - flushedCache.Hits)
			m.SimCacheMisses.Add(st.Misses - flushedCache.Misses)
			m.SimCacheEvictions.Add(st.Evictions - flushedCache.Evictions)
			m.DescSetsInterned.Add(st.DescSets - flushedCache.DescSets)
			flushedCache = st
		}
	}
	swSpan := candSpan.Child(obs.SpanSlidingWindow, obs.String(obs.AttrCandidate, cand.Name))
	// endPass closes one key pass: heap sample, per-pass span with the
	// pass's own deltas, and a metrics flush.
	passBase := *cstats
	passBaseDups := len(pairs)
	endPass := func(passSpan *obs.Span, interrupted bool) {
		if m != nil {
			m.SampleHeap()
			if !interrupted {
				m.PassesDone.Add(1)
			}
		}
		if passSpan != nil {
			passSpan.SetAttr(
				obs.Int(obs.AttrWindowPairs, cstats.WindowPairs-passBase.WindowPairs),
				obs.Int(obs.AttrComparisons, cstats.Comparisons-passBase.Comparisons),
				obs.Int(obs.AttrFilteredOut, cstats.FilteredOut-passBase.FilteredOut),
				obs.Int(obs.AttrDuplicatePairs, len(pairs)-passBaseDups))
			if m != nil {
				passSpan.SetAttr(obs.Int64(obs.AttrHeapBytes, m.HeapInUse.Load()))
			}
			if interrupted {
				passSpan.SetAttr(obs.Bool(obs.AttrInterrupted, true))
			}
			passSpan.End()
		}
		passBase = *cstats
		passBaseDups = len(pairs)
		flushObs()
	}

	// The sweeper splits each pair into an ordered enumeration half
	// (dedup, budget, counters, observer, pairs — everything below that
	// reads or writes shared state, kept on this goroutine) and a pure
	// comparison half that may run on PairWorkers goroutines. curPass
	// tracks the pass being merged: the sweeper is always drained before
	// a pass ends, so buffered verdicts never cross a pass boundary.
	curPass := startPass
	sw := newSweeper(opts.pairWorkerCount(),
		func(v *pairVerdict) {
			v.odSim, v.descSim, v.hasDesc, v.dup, v.filtered, v.err =
				comparePair(t, v.a, v.b, useDesc, opts, cache)
		},
		func(v *pairVerdict) error {
			if v.err != nil {
				return v.err
			}
			if v.filtered {
				cstats.FilteredOut++
			} else {
				cstats.Comparisons++
				odCalls++
			}
			if useDesc {
				descCalls++
			}
			if opts.PairObserver != nil {
				opts.PairObserver(PairObservation{
					Candidate: cand.Name,
					KeyIndex:  curPass,
					A:         minInt(v.a.EID, v.b.EID),
					B:         maxInt(v.a.EID, v.b.EID),
					ODSim:     v.odSim,
					DescSim:   v.descSim,
					HasDesc:   v.hasDesc,
					Duplicate: v.dup,
					Filtered:  v.filtered,
				})
			}
			if v.dup {
				pairs = append(pairs, cluster.MakePair(v.a.EID, v.b.EID))
			}
			return nil
		})

	// The ring keeps exactly the trailing rows a window can revisit:
	// the base window, widened to the adaptive cap when adaptive
	// windows are on, clamped to the table size. For the in-memory
	// source the ring holds pointers into the resident table; for the
	// spill source it is the only live copy of the streamed rows — the
	// memory bound the spill path exists for.
	keep := w
	if cand.AdaptiveKeySim > 0 {
		maxW := cand.AdaptiveMaxWindow
		if maxW <= 0 {
			maxW = 3 * cand.Window
		}
		if maxW > keep {
			keep = maxW
		}
	}
	if keep > len(t.Rows) {
		keep = len(t.Rows)
	}
	ring := newRowRing(keep)
	var order []sortedRow
	if spiller == nil {
		order = make([]sortedRow, len(t.Rows))
	}
	for pass := startPass; pass < len(keys); pass++ {
		curPass = pass
		k := pass
		lookup := pass > startPass || seeded
		record := pass+1 < len(keys)
		passSpan := swSpan.Child(obs.SpanPass,
			obs.String(obs.AttrCandidate, cand.Name), obs.Int(obs.AttrPass, pass))
		// interruptPass funnels every budget seam through the one drain
		// sequence: pairs enumerated before the interruption precede it
		// in window order, so the sequential run would have compared
		// them already — drain them, and let a hard comparison error in
		// the drain win over the interruption for the same reason. It is
		// reached before src exists when the spill sort itself is
		// interrupted, hence the nil checks.
		var src rowSource
		interruptPass := func(cause error) (*cluster.ClusterSet, *CandidateStats, error) {
			if ferr := sw.finish(); ferr != nil {
				if src != nil {
					src.close()
				}
				return nil, nil, ferr
			}
			if src != nil {
				src.close()
			}
			cstats.SlidingWindow = time.Since(swStart)
			endPass(passSpan, true)
			swSpan.End()
			flush(pass)
			return nil, cstats, &interruptError{cause: cause, phase: PhaseSlidingWindow, pass: pass}
		}
		if spiller != nil {
			// The external sort does real I/O before the first pair is
			// enumerated; check the budget around it so deadlines and
			// cancellation interrupt a spilling pass about as fast as an
			// in-memory one.
			if bud.active {
				if err := bud.check(); err != nil {
					return interruptPass(err)
				}
			}
			s, err := spiller.source(k, swSpan, bud)
			if err != nil {
				if isInterruption(err) {
					return interruptPass(err)
				}
				return nil, nil, err
			}
			src = s
		} else {
			sortPass(order, t.Rows, k)
			src = &memSource{order: order}
		}
		i := -1
		for {
			row, err := src.next()
			if err != nil {
				src.close()
				return nil, nil, err
			}
			if row == nil {
				break
			}
			i++
			ring.push(i, row)
			if i == 0 {
				continue
			}
			lo := i - (w - 1)
			if lo < 0 {
				lo = 0
			}
			if cand.AdaptiveKeySim > 0 {
				lo = adaptiveLow(ring, row, i, lo, k, cand)
			}
			for j := lo; j < i; j++ {
				a, b := ring.at(j), row
				cstats.WindowPairs++
				if m != nil && cstats.WindowPairs&0xFFF == 0 {
					flushObs()
				}
				if err := bud.poll(cstats.WindowPairs); err != nil {
					return interruptPass(err)
				}
				key := packPair(a.EID, b.EID)
				if lookup {
					if _, seen := compared[key]; seen {
						continue
					}
				}
				if record {
					compared[key] = struct{}{}
				}
				if err := bud.addComparison(); err != nil {
					return interruptPass(err)
				}
				if err := sw.add(a, b); err != nil {
					src.close()
					return nil, nil, err
				}
			}
		}
		if err := src.close(); err != nil {
			return nil, nil, err
		}
		// Drain before the pass is accounted: verdicts of buffered pairs
		// belong to this pass's span, checkpoint, and counters.
		if err := sw.finish(); err != nil {
			return nil, nil, err
		}
		endPass(passSpan, false)
		// A completed pass is a durable resume point; the final pass is
		// covered moments later by the candidate's own completion.
		if pass+1 < len(keys) && opts.Checkpointer != nil {
			if err := opts.Checkpointer.Progress(cand.Name, pass+1, pairs); err != nil {
				return nil, nil, fmt.Errorf("core: checkpoint candidate %q after pass %d: %w", cand.Name, pass, err)
			}
		}
	}
	cstats.DuplicatePairs = len(pairs)
	cstats.SlidingWindow = time.Since(swStart)
	swSpan.End()
	flushObs()

	tcStart := time.Now()
	tcSpan := candSpan.Child(obs.SpanTransitiveClosure, obs.String(obs.AttrCandidate, cand.Name))
	tcInterrupt := func(err error) (*cluster.ClusterSet, *CandidateStats, error) {
		cstats.TransitiveClosure = time.Since(tcStart)
		if tcSpan != nil {
			tcSpan.SetAttr(obs.Bool(obs.AttrInterrupted, true))
			tcSpan.End()
		}
		// Every window pass is complete: a resume re-enters directly at
		// the transitive closure.
		flush(len(keys))
		return nil, cstats, &interruptError{cause: err, phase: PhaseTransitiveClosure, pass: -1}
	}
	// Phase-entry check so a cancellation arriving at the tail of the
	// sliding window is attributed to the closure it would interrupt.
	if bud.active {
		if err := bud.check(); err != nil {
			return tcInterrupt(err)
		}
	}
	uf := cluster.NewUnionFindSize(len(t.Rows))
	tcIter := 0
	for i := range t.Rows {
		tcIter++
		if err := bud.poll(tcIter); err != nil {
			return tcInterrupt(err)
		}
		uf.Add(t.Rows[i].EID)
	}
	for _, p := range pairs {
		tcIter++
		if err := bud.poll(tcIter); err != nil {
			return tcInterrupt(err)
		}
		uf.Union(p.A, p.B)
	}
	cs := cluster.Build(uf)
	cstats.TransitiveClosure = time.Since(tcStart)
	cstats.Clusters = cs.Len()
	cstats.NonSingleton = len(cs.NonSingletons())
	tcSpan.SetAttr(
		obs.Int(obs.AttrClusters, cs.Len()),
		obs.Int(obs.AttrNonSingleton, len(cs.NonSingletons())))
	tcSpan.End()
	if cache != nil {
		st := cache.Stats()
		candSpan.SetAttr(
			obs.Int64(obs.AttrSimCacheHits, st.Hits-baseCache.Hits),
			obs.Int64(obs.AttrSimCacheMisses, st.Misses-baseCache.Misses),
			obs.Int64(obs.AttrSimCacheEvictions, st.Evictions-baseCache.Evictions))
	}
	return cs, cstats, nil
}

// sortedRow is a row's place in one pass's sort: its passKey copied
// next to the row pointer, so comparisons read one contiguous slice
// instead of chasing row -> Keys -> key.
type sortedRow struct {
	passKey
	row *GKRow
}

// sortPass fills order, one entry per row, with the rows in the given
// pass's order. The order is total, so the unstable pdqsort yields the
// one permutation every other sort of the pass yields.
func sortPass(order []sortedRow, rows []GKRow, pass int) {
	for i := range rows {
		order[i] = sortedRow{rows[i].passKey(pass), &rows[i]}
	}
	slices.SortFunc(order, func(a, b sortedRow) int { return a.compare(b.passKey) })
}

// DefaultSimCacheSize is the per-candidate value-pair capacity used
// when Options.SimCacheSize is zero.
const DefaultSimCacheSize = similarity.DefaultCacheSize

// estWindowPairs estimates the window pair slots one key pass visits
// for n rows and window w: sum over positions i of min(i, w-1) — the
// ramp-up at the start of the sorted order, then a full window per
// step. Adaptive window extension can exceed the estimate; repeated
// pairs across passes are included (each pass slides independently).
func estWindowPairs(n, w int) int64 {
	m := int64(w - 1)
	if m <= 0 || n <= 1 {
		return 0
	}
	N := int64(n)
	if N-1 <= m {
		return N * (N - 1) / 2
	}
	return m*(N-1) - m*(m-1)/2
}

// adaptiveLow extends the window start below the fixed bound while the
// sort keys stay within the candidate's adaptive key similarity — the
// dynamic window sizing the paper's outlook attributes to Lehti &
// Fankhauser's precise blocking. The extension is capped by
// AdaptiveMaxWindow (0 means 3x the base window).
func adaptiveLow(ring *rowRing, cur *GKRow, i, lo, key int, cand *config.Candidate) int {
	maxW := cand.AdaptiveMaxWindow
	if maxW <= 0 {
		maxW = 3 * cand.Window
	}
	ki := cur.Keys[key]
	for lo > 0 && i-(lo-1) <= maxW-1 {
		kj := ring.at(lo - 1).Keys[key]
		if similarity.NormalizedEditRaw(ki, kj) < cand.AdaptiveKeySim {
			break
		}
		lo--
	}
	return lo
}

// ComparePair exposes the pair comparison (Defs. 2 and 3 plus the
// classification rule) for baselines and tools built on the GK tables.
func (t *GKTable) ComparePair(a, b *GKRow, useDesc bool) (odSim, descSim float64, hasDesc, dup bool, err error) {
	odSim, descSim, hasDesc, dup, _, err = comparePair(t, a, b, useDesc, Options{}, nil)
	return odSim, descSim, hasDesc, dup, err
}

// ResolveDescendantClusters prepares the rows' descendant cluster-ID
// lists from already-computed descendant cluster sets; callers that
// bypass Detect (e.g. the all-pairs baseline) must invoke it before
// ComparePair with useDesc=true.
func ResolveDescendantClusters(t *GKTable, clusters map[string]*cluster.ClusterSet) {
	resolveDescClusters(t, clusters)
}

// resolveDescClusters maps each row's descendant element IDs to the
// cluster IDs assigned by the (already processed) descendant
// candidates — the l_e lists feeding Definition 3. All rows' lists are
// cut from two table-wide backing arrays.
func resolveDescClusters(t *GKTable, clusters map[string]*cluster.ClusterSet) {
	sets := t.setDescTypes(clusters)
	rows, ids := 0, 0
	for i := range t.Rows {
		if len(t.Rows[i].Desc) > 0 {
			rows++
			for _, eids := range t.Rows[i].Desc {
				ids += len(eids)
			}
		}
	}
	k := len(t.descTypes)
	lists := make([]descList, rows*k)
	cids := make([]int, 0, ids)
	for i := range t.Rows {
		row := &t.Rows[i]
		row.desc = nil
		if len(row.Desc) == 0 {
			continue
		}
		row.desc, lists = lists[:k:k], lists[k:]
		cids = resolveRowDesc(row, t.descTypes, sets, cids)
	}
}

// setDescTypes records the table's descendant types — every name found
// in some row's Desc, sorted — and returns each type's cluster set (nil
// for a type that was not processed, whose lists stay empty).
func (t *GKTable) setDescTypes(clusters map[string]*cluster.ClusterSet) []*cluster.ClusterSet {
	var names []string
	for i := range t.Rows {
		for name := range t.Rows[i].Desc {
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	t.descTypes = names
	sets := make([]*cluster.ClusterSet, len(names))
	for i, name := range names {
		sets[i] = clusters[name]
	}
	return sets
}

// resolveRowDesc fills row.desc (already sized to the table's types)
// with the row's sorted cluster-ID lists, appending the IDs to cids and
// returning it extended. Element IDs a cluster set does not know are
// dropped. The spill path calls it as each row is decoded from a run
// file, so streamed rows carry the same l_e lists as resident ones.
func resolveRowDesc(row *GKRow, types []string, sets []*cluster.ClusterSet, cids []int) []int {
	for k, name := range types {
		eids, cs := row.Desc[name], sets[k]
		if len(eids) == 0 || cs == nil {
			continue
		}
		start := len(cids)
		for _, eid := range eids {
			if cid, ok := cs.CID(eid); ok {
				cids = append(cids, cid)
			}
		}
		l := cids[start:len(cids):len(cids)]
		slices.Sort(l)
		row.desc[k].cids = l
	}
	return cids
}

// comparePair computes OD similarity (Def. 2), descendant similarity
// (Def. 3), and the duplicate classification for one pair. It reads
// only the table, the two rows, and the (immutable) options plus the
// concurrency-safe cache, so pair workers may run it in parallel. A
// nil cache computes everything directly.
func comparePair(t *GKTable, a, b *GKRow, useDesc bool, opts Options, cache *similarity.Cache) (odSim, descSim float64, hasDesc, dup, filtered bool, err error) {
	if useDesc {
		descSim, hasDesc = descendantSimilarity(a, b, cache)
	}
	if opts.FieldRule != nil {
		fieldSims, ferr := cache.ODFieldSims(t.fields, a.OD, b.OD)
		if ferr != nil {
			return 0, 0, false, false, false, fmt.Errorf("core: candidate %q: %w", t.Candidate.Name, ferr)
		}
		odSim = aggregateFieldSims(t.fields, fieldSims)
		dup = opts.FieldRule(t.Candidate, fieldSims, descSim, hasDesc)
		return odSim, descSim, hasDesc, dup, false, nil
	}
	if opts.UseFilter {
		// Threshold-aware fast path (fastpath.go): sketch bounds,
		// banded edit distance, and early termination of the weighted
		// sum, with escalation to exact values whenever the bounds
		// leave the verdict open.
		odSim, dup, filtered, err = comparePairFiltered(t, a, b, descSim, hasDesc, cache)
		if err != nil {
			return 0, 0, false, false, false, fmt.Errorf("core: candidate %q: %w", t.Candidate.Name, err)
		}
		return odSim, descSim, hasDesc, dup, filtered, nil
	}
	odSim, err = cache.ODSimilarity(t.fields, a.OD, b.OD)
	if err != nil {
		return 0, 0, false, false, false, fmt.Errorf("core: candidate %q: %w", t.Candidate.Name, err)
	}
	dup = decide(t.Candidate, odSim, descSim, hasDesc)
	return odSim, descSim, hasDesc, dup, false, nil
}

// aggregateFieldSims folds per-field similarities into the Def. 2
// weighted sum so observers still see an OD similarity under a
// FieldRule. Absent fields renormalize exactly as ODSimilarity does.
func aggregateFieldSims(fields []similarity.ODField, sims []float64) float64 {
	var sum, weight float64
	for i, f := range fields {
		if sims[i] == similarity.FieldAbsent {
			continue
		}
		weight += f.Relevance
		sum += f.Relevance * sims[i]
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// descendantSimilarity implements Def. 3 with the paper's choices:
// φ^desc is the multiset overlap of cluster-ID lists and agg() is the
// unweighted average over descendant types, summed in type-name order.
// Types where both elements lack descendants are uninformative and
// skipped; if every type is uninformative the pair has no usable
// descendant signal (hasDesc is false) and classification falls back
// to the OD alone, matching the paper's leaf-node rule. With a
// similarity cache each overlap is served from the interned SetIDs
// instead; the operands and the summation order are the same, so the
// aggregate is bit-identical either way.
func descendantSimilarity(a, b *GKRow, cache *similarity.Cache) (float64, bool) {
	n := max(len(a.desc), len(b.desc))
	if n == 0 {
		return 0, false
	}
	var sum float64
	informative := 0
	for k := 0; k < n; k++ {
		la, lb := a.descAt(k), b.descAt(k)
		if len(la.cids) == 0 && len(lb.cids) == 0 {
			continue
		}
		if cache != nil {
			sum += cache.OverlapIDs(la.set, lb.set)
		} else {
			sum += similarity.OverlapSorted(la.cids, lb.cids)
		}
		informative++
	}
	if informative == 0 {
		return 0, false
	}
	return sum / float64(informative), true
}

// descAt returns the row's list for descendant type k; a row without
// descendants has the empty list (SetID 0) for every type.
func (r *GKRow) descAt(k int) descList {
	if k < len(r.desc) {
		return r.desc[k]
	}
	return descList{}
}

// internDescSets interns every row's descendant cluster-ID lists so
// pair comparisons work on SetIDs; runs once per candidate, after
// resolveDescClusters.
func internDescSets(t *GKTable, c *similarity.Cache) {
	for i := range t.Rows {
		internRowDescSets(&t.Rows[i], c)
	}
}

// internRowDescSets interns one row's descendant lists. SetIDs are
// content-keyed in the cache, so the assignment order (table sweep vs
// spill decode order) never changes a similarity result. Empty lists
// keep SetID 0, the empty multiset.
func internRowDescSets(row *GKRow, c *similarity.Cache) {
	for k := range row.desc {
		if l := &row.desc[k]; len(l.cids) > 0 {
			l.set = c.InternDesc(l.cids)
		}
	}
}

// decide applies the candidate's classification rule.
func decide(c *config.Candidate, odSim, descSim float64, hasDesc bool) bool {
	switch c.Rule {
	case config.RuleEither:
		return odSim >= c.ODThreshold || (hasDesc && descSim >= c.DescThreshold)
	case config.RuleBoth:
		if odSim < c.ODThreshold {
			return false
		}
		return !hasDesc || descSim >= c.DescThreshold
	default: // RuleCombined
		return similarity.Combine(odSim, descSim, c.ODWeight, hasDesc) >= c.Threshold
	}
}

func packPair(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
