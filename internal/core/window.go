package core

import (
	"fmt"
	"runtime"
	"sync"
)

// This file parallelizes the inside of one key pass. The sliding
// window enumerates pairs in a fixed order (the sorted GK order), and
// everything order-sensitive — dedup against the compared set, budget
// polling, stat counters, PairObserver callbacks, the duplicate pair
// list that feeds checkpoints and transitive closure — stays on the
// enumerating goroutine. Only the pure pair comparison (Defs. 2 and 3
// plus classification, a function of the two rows alone) fans out:
// pairs are buffered into batches, a batch is split into one chunk per
// worker, and the verdicts are merged back in enumeration order. The
// merge order makes every observable — clusters, Stats, spans,
// checkpoints, pair observations — byte-identical to the sequential
// run.

// pairBatchSize is how many window pairs are buffered before the
// worker pool runs them. Large enough to amortize goroutine wake-ups,
// small enough that budget interruptions stay responsive (a batch is
// at most one flush behind the enumeration).
const pairBatchSize = 2048

// pairVerdict carries one window pair through the compare stage: the
// rows going in, the comparison outcome coming out.
type pairVerdict struct {
	a, b     *GKRow
	odSim    float64
	descSim  float64
	hasDesc  bool
	dup      bool
	filtered bool
	err      error
	panicked *pairPanic
}

// pairPanic preserves a panic raised inside a worker goroutine so the
// merge loop can re-raise it on the enumerating goroutine, where the
// candidate-level recover turns it into a *PanicError. The worker's
// stack rides along — the re-raised panic's own stack only shows the
// merge loop.
type pairPanic struct {
	val   any
	stack []byte
}

func (p *pairPanic) String() string {
	return fmt.Sprintf("%v\n\nworker stack:\n%s", p.val, p.stack)
}

// sweeper batches window pairs and applies compare/merge with the
// ordering contract above. workers == 0 bypasses batching entirely:
// add() compares and merges inline, reproducing the sequential loop
// with no buffering or goroutines. workers >= 1 runs compare on that
// many goroutines per batch (1 exercises the full batching machinery
// on a single worker — same answers, useful for differential tests).
type sweeper struct {
	workers int
	compare func(*pairVerdict)
	merge   func(*pairVerdict) error
	batch   []pairVerdict
}

func newSweeper(workers int, compare func(*pairVerdict), merge func(*pairVerdict) error) *sweeper {
	s := &sweeper{workers: workers, compare: compare, merge: merge}
	if workers > 0 {
		s.batch = make([]pairVerdict, 0, pairBatchSize)
	}
	return s
}

// add enqueues one pair in enumeration order, flushing when the batch
// fills. An error is a hard comparison error already merged in order;
// the caller aborts exactly as the sequential loop would.
func (s *sweeper) add(a, b *GKRow) error {
	if s.workers == 0 {
		v := pairVerdict{a: a, b: b}
		s.compare(&v)
		return s.merge(&v)
	}
	s.batch = append(s.batch, pairVerdict{a: a, b: b})
	if len(s.batch) >= pairBatchSize {
		return s.flush()
	}
	return nil
}

// finish drains any buffered pairs. It must run before the pass (or an
// interruption of it) is accounted: buffered pairs were already
// counted by the enumeration, so their verdicts belong to this pass.
func (s *sweeper) finish() error {
	if len(s.batch) == 0 {
		return nil
	}
	return s.flush()
}

func (s *sweeper) flush() error {
	n := len(s.batch)
	workers := s.workers
	if workers > n {
		workers = n
	}
	if workers > 1 {
		// Contiguous chunks, one per worker: pair comparison cost is
		// roughly uniform, so equal-size ranges balance well without the
		// contention of a shared index.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := n*w/workers, n*(w+1)/workers
			wg.Add(1)
			go func(chunk []pairVerdict) {
				defer wg.Done()
				for i := range chunk {
					s.compareSafe(&chunk[i])
				}
			}(s.batch[lo:hi])
		}
		wg.Wait()
	} else {
		for i := range s.batch {
			s.compareSafe(&s.batch[i])
		}
	}
	// Merge in enumeration order. A panic re-raises at the position the
	// sequential run would have panicked; an error stops the merge at
	// the position the sequential run would have returned it.
	var err error
	for i := range s.batch {
		v := &s.batch[i]
		if err != nil {
			break
		}
		if v.panicked != nil {
			s.batch = s.batch[:0]
			panic(v.panicked)
		}
		err = s.merge(v)
	}
	s.batch = s.batch[:0]
	return err
}

// compareSafe runs compare, converting a panic into a pairVerdict
// field instead of unwinding the worker goroutine (which would crash
// the process — the candidate-level recover lives on another stack).
func (s *sweeper) compareSafe(v *pairVerdict) {
	defer func() {
		if r := recover(); r != nil {
			v.panicked = &pairPanic{val: r, stack: workerStack()}
		}
	}()
	s.compare(v)
}

func workerStack() []byte {
	buf := make([]byte, 8192)
	return buf[:runtime.Stack(buf, false)]
}

// pairWorkerCount resolves Options.PairWorkers: 0 means the sequential
// inline path, negative means one worker per available CPU. With a
// single CPU a negative count resolves to the inline path too: one
// worker has nothing to parallelize and would only add a batch copy
// and a recover per pair. An explicit 1 keeps the batching machinery
// (the differential anchor).
func (o *Options) pairWorkerCount() int {
	if o.PairWorkers < 0 {
		if n := runtime.GOMAXPROCS(0); n >= 2 {
			return n
		}
		return 0
	}
	return o.PairWorkers
}
