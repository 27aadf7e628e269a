package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/gen/freedb"
	"repro/internal/xmltree"
)

// The differential suite is the proof behind Options.PairWorkers and
// Options.SimCache: every combination of worker count and cache state
// must reproduce the sequential, uncached run exactly — cluster sets,
// Stats (durations excluded — wall clock is the one thing that may
// change), the full checkpoint callback stream, and every
// PairObservation including its float64 similarities, compared with ==.

// pairWorkerMatrix is the worker axis from the issue: 0 = the plain
// sequential loop, 1 = the batching machinery on a single worker,
// 4/16 = real chunk-boundary interleavings (16 > batch/chunk sizes on
// these corpora, forcing tiny uneven chunks).
var pairWorkerMatrix = []int{0, 1, 4, 16}

// runSnapshot is one Detect run reduced to its observable bytes.
type runSnapshot struct {
	clusters  map[string]string            // candidate → canonical cluster set
	stats     string                       // Stats with durations zeroed
	pairObs   map[string][]PairObservation // per candidate, in comparison order
	ckpt      map[string][]string          // per candidate checkpoint callbacks, in order
	doneOrder []string                     // CandidateDone sequence
}

// recordingCkpt serializes the Checkpointer callback stream: Progress
// grouped per candidate, and the global CandidateDone order in which
// the engine's candidate loop finished the candidates.
type recordingCkpt struct {
	mu      sync.Mutex
	perCand map[string][]string
	done    []string
}

func newRecordingCkpt() *recordingCkpt {
	return &recordingCkpt{perCand: make(map[string][]string)}
}

func (r *recordingCkpt) Progress(candidate string, nextPass int, pairs []cluster.Pair) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.perCand[candidate] = append(r.perCand[candidate],
		fmt.Sprintf("progress next=%d pairs=%v", nextPass, pairs))
	return nil
}

func (r *recordingCkpt) CandidateDone(candidate string, cs *cluster.ClusterSet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.perCand[candidate] = append(r.perCand[candidate], "done "+cs.String())
	r.done = append(r.done, candidate)
	return nil
}

// pairRecorder captures PairObservations grouped by candidate, in
// per-candidate order.
type pairRecorder struct {
	mu     sync.Mutex
	byCand map[string][]PairObservation
}

func (p *pairRecorder) observe(o PairObservation) {
	p.mu.Lock()
	p.byCand[o.Candidate] = append(p.byCand[o.Candidate], o)
	p.mu.Unlock()
}

// normalizeStats renders Stats with every duration zeroed — wall
// clock is the only field parallelism is allowed to change.
func normalizeStats(s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "comparisons=%d filtered=%d dups=%d\n",
		s.Comparisons, s.FilteredOut, s.DuplicatePairs)
	names := make([]string, 0, len(s.Candidates))
	for name := range s.Candidates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := *s.Candidates[name]
		c.SlidingWindow, c.TransitiveClosure = 0, 0
		fmt.Fprintf(&b, "%s: %+v\n", name, c)
	}
	return b.String()
}

func snapshotRun(t *testing.T, kg *KeyGenResult, cfg *config.Config, opts Options) runSnapshot {
	t.Helper()
	snap, _ := snapshotRunStats(t, kg, cfg, opts)
	return snap
}

// snapshotRunStats also hands back the raw Stats for suites that
// compare folded invariants (the filter axis) rather than the
// normalized string.
func snapshotRunStats(t *testing.T, kg *KeyGenResult, cfg *config.Config, opts Options) (runSnapshot, Stats) {
	t.Helper()
	rec := newRecordingCkpt()
	po := &pairRecorder{byCand: make(map[string][]PairObservation)}
	opts.Checkpointer = rec
	opts.PairObserver = po.observe
	res, err := Detect(kg, cfg, opts)
	if err != nil {
		t.Fatalf("Detect(workers=%d cache=%v): %v",
			opts.PairWorkers, opts.SimCache, err)
	}
	snap := runSnapshot{
		clusters:  make(map[string]string, len(res.Clusters)),
		stats:     normalizeStats(res.Stats),
		pairObs:   po.byCand,
		ckpt:      rec.perCand,
		doneOrder: rec.done,
	}
	for name, cs := range res.Clusters {
		snap.clusters[name] = cs.String()
	}
	return snap, res.Stats
}

func diffSnapshots(t *testing.T, label string, want, got runSnapshot) {
	t.Helper()
	if !reflect.DeepEqual(got.clusters, want.clusters) {
		t.Errorf("%s: cluster sets differ from sequential baseline\nwant %v\ngot  %v",
			label, want.clusters, got.clusters)
	}
	if got.stats != want.stats {
		t.Errorf("%s: Stats differ from sequential baseline\nwant:\n%s\ngot:\n%s",
			label, want.stats, got.stats)
	}
	if !reflect.DeepEqual(got.pairObs, want.pairObs) {
		t.Errorf("%s: pair observation streams differ from sequential baseline", label)
	}
	if !reflect.DeepEqual(got.ckpt, want.ckpt) {
		t.Errorf("%s: checkpoint callback streams differ\nwant %v\ngot  %v",
			label, want.ckpt, got.ckpt)
	}
	if !reflect.DeepEqual(got.doneOrder, want.doneOrder) {
		t.Errorf("%s: CandidateDone order differs: want %v, got %v",
			label, want.doneOrder, got.doneOrder)
	}
}

// differentialScenario is one (document, configuration, base options)
// triple the matrix runs over.
type differentialScenario struct {
	name string
	doc  *xmltree.Document
	cfg  *config.Config
	base Options
}

func differentialScenarios(t *testing.T) []differentialScenario {
	t.Helper()
	movies, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cds, err := dataset.DataSet2(dataset.CDs2Options{Discs: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	adaptiveCfg := config.DataSet1(5)
	for i := range adaptiveCfg.Candidates {
		adaptiveCfg.Candidates[i].AdaptiveKeySim = 0.85
	}
	return []differentialScenario{
		// Single candidate, three keys: multi-pass revisits are the
		// cache's bread and butter.
		{name: "movies", doc: movies, cfg: mustValidate(t, config.DataSet1(5)), base: Options{}},
		// Nested candidates with descendants: the interned-set Def. 3
		// path, RuleEither, bottom-up ordering.
		{name: "cds", doc: cds, cfg: mustValidate(t, config.DataSet2(4)), base: Options{}},
		// Generated corpus with the upper-bound filter: the filtered
		// verdict path must merge identically too.
		{name: "freedb-filter", doc: freedb.Generate(freedb.DefaultOptions(40, 3)),
			cfg: mustValidate(t, cdConfig()), base: Options{UseFilter: true}},
		// Adaptive windows: worker chunks see data-dependent window
		// extents.
		{name: "movies-adaptive", doc: movies, cfg: mustValidate(t, adaptiveCfg), base: Options{}},
	}
}

// TestDifferentialMatrix is the equivalence proof: PairWorkers ∈
// {0,1,4,16} × SimCache ∈ {off,on} (plus a tiny cache that evicts
// mid-run) all reproduce the sequential uncached run
// observable-for-observable.
func TestDifferentialMatrix(t *testing.T) {
	for _, sc := range differentialScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			kg, err := GenerateKeys(sc.doc, sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			baseline := snapshotRun(t, kg, sc.cfg, sc.base)
			for _, workers := range pairWorkerMatrix {
				for _, cache := range []bool{false, true} {
					if workers == 0 && !cache {
						continue // the baseline itself
					}
					opts := sc.base
					opts.PairWorkers = workers
					opts.SimCache = cache
					label := fmt.Sprintf("workers=%d cache=%v", workers, cache)
					diffSnapshots(t, label, baseline, snapshotRun(t, kg, sc.cfg, opts))
				}
			}
			// Pair workers with a deliberately tiny cache, forcing
			// evictions mid-run.
			opts := sc.base
			opts.PairWorkers = 4
			opts.SimCache = true
			opts.SimCacheSize = 64
			diffSnapshots(t, "workers=4+tiny-cache", baseline, snapshotRun(t, kg, sc.cfg, opts))
		})
	}
}

// TestDifferentialInterrupted pins the interruption seam: a
// MaxComparisons budget trips at a deterministic enumeration point, so
// the partial result — completed clusters, Incomplete bookkeeping, and
// the best-effort checkpoint flush — must also be identical across the
// matrix.
func TestDifferentialInterrupted(t *testing.T) {
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustValidate(t, config.DataSet1(5))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type partial struct {
		incomplete Incomplete
		ckpt       map[string][]string
		clusters   map[string]string
	}
	run := func(workers int, cache bool) partial {
		rec := newRecordingCkpt()
		opts := Options{
			PairWorkers:  workers,
			SimCache:     cache,
			Checkpointer: rec,
			Limits:       Limits{MaxComparisons: 700},
		}
		res, err := Detect(kg, cfg, opts)
		if err == nil {
			t.Fatalf("workers=%d: expected an interrupted run", workers)
		}
		if res == nil || res.Incomplete == nil {
			t.Fatalf("workers=%d: interrupted run returned no partial result", workers)
		}
		p := partial{incomplete: *res.Incomplete, ckpt: rec.perCand,
			clusters: make(map[string]string)}
		p.incomplete.Cause = nil // same typed cause, compared via the error above
		for name, cs := range res.Clusters {
			p.clusters[name] = cs.String()
		}
		return p
	}
	want := run(0, false)
	for _, workers := range pairWorkerMatrix[1:] {
		for _, cache := range []bool{false, true} {
			got := run(workers, cache)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d cache=%v: interrupted snapshot differs\nwant %+v\ngot  %+v",
					workers, cache, want, got)
			}
		}
	}
}

// TestDifferentialStatsIgnoreCache double-checks the layering rule
// directly: cache counters live in obs metrics only, so Result.Stats
// must not change byte-for-byte when the cache is enabled.
func TestDifferentialStatsIgnoreCache(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(30, 9))
	cfg := mustValidate(t, cdConfig())
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Detect(kg, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	with, err := Detect(kg, cfg, Options{SimCache: true, SimCacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeStats(with.Stats), normalizeStats(without.Stats); got != want {
		t.Errorf("SimCache leaked into Stats:\nwithout:\n%s\nwith:\n%s", want, got)
	}
}

// foldedStats renders the Stats invariants that must survive the
// filter axis: the filter converts Comparisons into FilteredOut one
// for one, so the attempted-comparison sum, window pair counts, and
// every duplicate/cluster figure are filter-independent.
func foldedStats(s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempted=%d dups=%d\n", s.Comparisons+s.FilteredOut, s.DuplicatePairs)
	names := make([]string, 0, len(s.Candidates))
	for name := range s.Candidates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := s.Candidates[name]
		fmt.Fprintf(&b, "%s: rows=%d attempted=%d windowPairs=%d dups=%d clusters=%d nonSingleton=%d\n",
			name, c.Rows, c.Comparisons+c.FilteredOut, c.WindowPairs,
			c.DuplicatePairs, c.Clusters, c.NonSingleton)
	}
	return b.String()
}

// diffFilterSnapshots compares a filters-on run against the unfiltered
// baseline. Clusters, checkpoint streams, completion order, and the
// folded Stats must match exactly. Pair observations match field for
// field except ODSim, where the fast path's licensed deviation is a
// deterministic bound: an upper bound for filtered pairs, a lower
// bound for short-circuited duplicates, and the identical float64
// everywhere else.
func diffFilterSnapshots(t *testing.T, label string, slow, fast runSnapshot, slowStats, fastStats Stats) {
	t.Helper()
	if !reflect.DeepEqual(fast.clusters, slow.clusters) {
		t.Errorf("%s: cluster sets differ from unfiltered baseline\nwant %v\ngot  %v",
			label, slow.clusters, fast.clusters)
	}
	if want, got := foldedStats(slowStats), foldedStats(fastStats); got != want {
		t.Errorf("%s: folded Stats differ from unfiltered baseline\nwant:\n%s\ngot:\n%s",
			label, want, got)
	}
	if !reflect.DeepEqual(fast.ckpt, slow.ckpt) {
		t.Errorf("%s: checkpoint callback streams differ\nwant %v\ngot  %v",
			label, slow.ckpt, fast.ckpt)
	}
	if !reflect.DeepEqual(fast.doneOrder, slow.doneOrder) {
		t.Errorf("%s: CandidateDone order differs: want %v, got %v",
			label, slow.doneOrder, fast.doneOrder)
	}
	for cand, slowObs := range slow.pairObs {
		fastObs := fast.pairObs[cand]
		if len(fastObs) != len(slowObs) {
			t.Errorf("%s: %s: %d observations, want %d", label, cand, len(fastObs), len(slowObs))
			continue
		}
		for i, want := range slowObs {
			got := fastObs[i]
			if got.Candidate != want.Candidate || got.KeyIndex != want.KeyIndex ||
				got.A != want.A || got.B != want.B ||
				got.DescSim != want.DescSim || got.HasDesc != want.HasDesc ||
				got.Duplicate != want.Duplicate {
				t.Errorf("%s: %s[%d]: observation differs\nwant %+v\ngot  %+v", label, cand, i, want, got)
				continue
			}
			switch {
			case got.Filtered:
				if got.Duplicate {
					t.Errorf("%s: %s[%d]: filtered pair marked duplicate: %+v", label, cand, i, got)
				}
				if got.ODSim < want.ODSim {
					t.Errorf("%s: %s[%d]: filtered ODSim %v is not an upper bound of exact %v",
						label, cand, i, got.ODSim, want.ODSim)
				}
			case got.Duplicate:
				if got.ODSim > want.ODSim {
					t.Errorf("%s: %s[%d]: short-circuited ODSim %v is not a lower bound of exact %v",
						label, cand, i, got.ODSim, want.ODSim)
				}
			default:
				if got.ODSim != want.ODSim {
					t.Errorf("%s: %s[%d]: fully compared ODSim %v != exact %v",
						label, cand, i, got.ODSim, want.ODSim)
				}
			}
		}
	}
	for cand := range fast.pairObs {
		if _, ok := slow.pairObs[cand]; !ok {
			t.Errorf("%s: unexpected observations for candidate %s", label, cand)
		}
	}
}

// TestDifferentialFilterMatrix is the filter-axis equivalence proof:
// across every corpus, filters on × PairWorkers {0,4} × SimCache
// {off,on} must reproduce the unfiltered run's clusters, checkpoints,
// and folded Stats, with pair-level ODSim deviating only within the
// licensed bound semantics — and all filters-on variants must be
// bitwise identical to each other (the never-cache-capped-values and
// order-independence guarantees).
func TestDifferentialFilterMatrix(t *testing.T) {
	for _, sc := range differentialScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			kg, err := GenerateKeys(sc.doc, sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			slowOpts := sc.base
			slowOpts.UseFilter = false
			slow, slowStats := snapshotRunStats(t, kg, sc.cfg, slowOpts)
			var fastBase *runSnapshot
			filteredTotal := 0
			for _, workers := range []int{0, 4} {
				for _, cache := range []bool{false, true} {
					opts := sc.base
					opts.UseFilter = true
					opts.PairWorkers = workers
					opts.SimCache = cache
					label := fmt.Sprintf("filter workers=%d cache=%v", workers, cache)
					got, gotStats := snapshotRunStats(t, kg, sc.cfg, opts)
					diffFilterSnapshots(t, label, slow, got, slowStats, gotStats)
					filteredTotal += gotStats.FilteredOut
					if fastBase == nil {
						base := got
						fastBase = &base
					} else {
						diffSnapshots(t, label+" vs filters-on baseline", *fastBase, got)
					}
				}
			}
			// The corpora are dirty enough that a working filter must
			// actually skip comparisons somewhere in the matrix.
			if filteredTotal == 0 {
				t.Errorf("filter never fired on %s: FilteredOut = 0 across the whole matrix", sc.name)
			}
		})
	}
}

// TestDifferentialFilterInterrupted pins the interruption seam across
// the filter axis: the MaxComparisons budget counts enumerated pairs
// before the filter sees them, so an interrupted filtered run must
// stop at the same pair and flush the identical partial state as the
// unfiltered run.
func TestDifferentialFilterInterrupted(t *testing.T) {
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustValidate(t, config.DataSet1(5))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type partial struct {
		incomplete Incomplete
		ckpt       map[string][]string
		clusters   map[string]string
	}
	run := func(useFilter bool, workers int, cache bool) partial {
		rec := newRecordingCkpt()
		opts := Options{
			UseFilter:    useFilter,
			PairWorkers:  workers,
			SimCache:     cache,
			Checkpointer: rec,
			Limits:       Limits{MaxComparisons: 700},
		}
		res, err := Detect(kg, cfg, opts)
		if err == nil {
			t.Fatalf("filter=%v workers=%d: expected an interrupted run", useFilter, workers)
		}
		if res == nil || res.Incomplete == nil {
			t.Fatalf("filter=%v workers=%d: interrupted run returned no partial result", useFilter, workers)
		}
		p := partial{incomplete: *res.Incomplete, ckpt: rec.perCand,
			clusters: make(map[string]string)}
		p.incomplete.Cause = nil
		for name, cs := range res.Clusters {
			p.clusters[name] = cs.String()
		}
		return p
	}
	want := run(false, 0, false)
	for _, workers := range []int{0, 4} {
		for _, cache := range []bool{false, true} {
			got := run(true, workers, cache)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("filter workers=%d cache=%v: interrupted snapshot differs\nwant %+v\ngot  %+v",
					workers, cache, want, got)
			}
		}
	}
}
