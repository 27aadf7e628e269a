package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	sxnm "repro"
	"repro/internal/extsort"
	"repro/internal/obs"
	"repro/internal/runlimit"
	"repro/internal/xmltree"
)

// Fault taxonomy. Every attempt ends in exactly one class:
//
//	success      → done
//	interruption → canceled (submitter asked), requeued (daemon is
//	               draining; progress is checkpointed, the spool keeps
//	               the job), or failed (the job burned its own budget)
//	permanent    → failed immediately: invalid config/document, a
//	               checkpoint for a different input, corrupt spill
//	               state, or a contained panic — retrying cannot help
//	transient    → retried with exponential backoff and jitter up to
//	               MaxAttempts; the checkpoint written by the failed
//	               attempt makes each retry incremental, not a redo
//
// permanentError wraps faults detected by the worker itself (an
// invalid config, panics); a document the run's scan rejects surfaces
// as an *xmltree.SyntaxError.
type permanentError struct {
	code string
	err  error
}

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func classifyPermanent(err error) (string, bool) {
	var pe *permanentError
	var se *xmltree.SyntaxError
	switch {
	case errors.As(err, &pe):
		return pe.code, true
	case errors.As(err, &se):
		return "invalid-document", true
	case errors.Is(err, sxnm.ErrCheckpointMismatch):
		return "checkpoint-mismatch", true
	case errors.Is(err, extsort.ErrCorrupt):
		return "corrupt-state", true
	}
	var panicErr *sxnm.PanicError
	if errors.As(err, &panicErr) {
		return "panic", true
	}
	return "", false
}

func budgetCode(err error) string {
	var le *sxnm.LimitError
	switch {
	case errors.Is(err, sxnm.ErrDeadlineExceeded):
		return "deadline-exceeded"
	case errors.As(err, &le), errors.Is(err, sxnm.ErrLimitExceeded):
		return "limit-exceeded"
	default:
		return "interrupted"
	}
}

func (s *Server) worker(i int) {
	defer s.wg.Done()
	for {
		// Drain has priority over the queue: a select with both
		// channels ready picks randomly, and pulling a queued job after
		// the drain started would run it against a dead context. Queued
		// jobs must stay parked in the spool for the next generation.
		select {
		case <-s.drainCtx.Done():
			return
		default:
		}
		select {
		case <-s.drainCtx.Done():
			return
		case j := <-s.queue:
			s.Met.QueueDepth.Add(-1)
			s.runJob(j)
		}
	}
}

// runJob drives one job to a terminal state or back into the spool.
func (s *Server) runJob(j *job) {
	if s.drainCtx.Err() != nil {
		// Drain won the race for this queue slot: don't start an
		// attempt that is born interrupted. The job stays queued, its
		// spool entry has no outcome, and the next generation resumes
		// it — exactly as if it had never been dequeued.
		return
	}
	ctx, cancel := context.WithCancel(s.drainCtx)
	defer cancel()

	j.mu.Lock()
	if j.state.Terminal() { // canceled while queued
		j.mu.Unlock()
		return
	}
	if j.fenced { // lost the lease while still queued
		j.mu.Unlock()
		s.finishFenced(j)
		return
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.cancel = cancel
	alreadyCancelled := j.cancelled
	enqueued := j.enqueued
	j.mu.Unlock()
	if !enqueued.IsZero() {
		s.Hist.QueueWait.Observe(time.Since(enqueued))
	}
	if alreadyCancelled {
		s.finishJob(j, StateCanceled, &apiError{Code: "canceled", Message: "canceled before running"}, nil)
		return
	}
	s.Met.RunningJobs.Add(1)
	defer s.Met.RunningJobs.Add(-1)

	for attempt := 1; ; attempt++ {
		if !s.stillOwns(j) {
			s.finishFenced(j)
			return
		}
		j.mu.Lock()
		j.attempts++
		total := j.attempts
		j.mu.Unlock()
		s.journalAppend(j, JobEvent{Type: EventAttempt, Attempt: total})

		attemptStart := time.Now()
		res, err := s.runAttempt(ctx, j)
		s.Hist.Attempt.Observe(time.Since(attemptStart))
		switch {
		case err == nil:
			s.finishJob(j, StateDone, nil, res)
			return

		case runlimit.IsInterruption(err):
			if j.isCancelled() {
				s.finishJob(j, StateCanceled, &apiError{Code: "canceled", Message: err.Error()}, nil)
				return
			}
			if s.drainCtx.Err() != nil {
				s.requeueJob(j)
				return
			}
			s.finishJob(j, StateFailed, &apiError{Code: budgetCode(err), Message: err.Error()}, nil)
			return

		default:
			if code, ok := classifyPermanent(err); ok {
				s.finishJob(j, StateFailed, &apiError{Code: code, Message: err.Error()}, nil)
				return
			}
			if attempt >= s.cfg.MaxAttempts {
				s.finishJob(j, StateFailed, &apiError{Code: "transient-exhausted",
					Message: fmt.Sprintf("gave up after %d attempt(s): %v", total, err)}, nil)
				return
			}
			s.Met.Retries.Add(1)
			s.journalAppend(j, JobEvent{Type: EventRetry, Attempt: total, Cause: err.Error()})
			s.cfg.Logf("job %s: attempt %d failed transiently, retrying: %v", j.id, attempt, err)
			if !s.sleepBackoff(ctx, attempt) {
				if j.isCancelled() {
					s.finishJob(j, StateCanceled, &apiError{Code: "canceled", Message: "canceled during retry backoff"}, nil)
				} else {
					s.requeueJob(j)
				}
				return
			}
		}
	}
}

// runAttempt executes one engine run over the job's spooled checkpoint
// directory, with panic containment: a panic anywhere in the engine is
// recovered into a permanent fault on this job, never a daemon crash.
func (s *Server) runAttempt(ctx context.Context, j *job) (res *sxnm.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.Met.PanicsContained.Add(1)
			err = &permanentError{code: "panic", err: fmt.Errorf("contained worker panic: %v", r)}
		}
	}()

	cfg, lerr := sxnm.LoadConfig(strings.NewReader(j.req.ConfigXML))
	if lerr != nil {
		return nil, &permanentError{code: "invalid-config", err: lerr}
	}
	opts := s.cfg.Engine
	opts.Observer = j.ob
	opts.Limits = j.limits
	if opts.SpillThresholdRows > 0 {
		opts.SpillDir = s.spool.spillDir(j.id)
	}
	if opts.SimCache {
		if fp, ferr := sxnm.ConfigFingerprint(cfg); ferr == nil {
			opts.SimCacheFor = s.pool.providerFor(fp)
		}
	}
	det, derr := sxnm.NewWithOptions(cfg, opts)
	if derr != nil {
		return nil, &permanentError{code: "invalid-config", err: derr}
	}
	runner := s.cfg.Runner
	if runner == nil {
		runner = defaultRunner
	}
	return runner(ctx, det, strings.NewReader(j.req.DocumentXML), s.cfg.CheckpointFS, s.spool.checkpointDir(j.id))
}

func defaultRunner(ctx context.Context, det *sxnm.Detector, doc io.Reader, fsys sxnm.CheckpointFS, ckptDir string) (*sxnm.Result, error) {
	return det.RunCheckpointedFSContext(ctx, doc, fsys, ckptDir)
}

// sleepBackoff waits base·2^(attempt-1) with ±50% jitter, capped at
// RetryMaxDelay. Returns false when the wait was interrupted by drain
// or cancel.
func (s *Server) sleepBackoff(ctx context.Context, attempt int) bool {
	d := s.cfg.RetryBaseDelay << (attempt - 1)
	if d > s.cfg.RetryMaxDelay || d <= 0 {
		d = s.cfg.RetryMaxDelay
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // [d/2, 3d/2)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// stillOwns re-checks the job's lease on disk before work that is
// about to mutate the spool. A definite mismatch means a reaper took
// the job over — this daemon must fence itself. Jobs constructed
// without a lease (epoch 0: direct test harness use) always pass.
func (s *Server) stillOwns(j *job) bool {
	j.mu.Lock()
	epoch, fenced := j.epoch, j.fenced
	j.mu.Unlock()
	if fenced {
		return false
	}
	if epoch == 0 {
		return true
	}
	return s.spool.verifyLease(j.id, s.owner, epoch) == nil
}

// finishFenced finalizes a job this daemon lost to a lease takeover:
// local state only — the new owner's spool records are the truth, so
// NOTHING is written to disk here. The tenant slot is released and the
// job reads as failed("lease-fenced") from this (stale) daemon.
func (s *Server) finishFenced(j *job) {
	j.mu.Lock()
	if j.finalized {
		j.mu.Unlock()
		return
	}
	j.finalized = true
	j.fenced = true
	j.state = StateFailed
	j.errCode = "lease-fenced"
	j.errMsg = "job taken over by another daemon; this daemon's attempt was abandoned without writes"
	j.finished = time.Now().UTC()
	cancel := j.cancel
	j.cancel = nil
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.releaseTenant(j)
	s.Met.LeasesFenced.Add(1)
	s.cfg.Logf("job %s: fenced; abandoned without spool writes", j.id)
}

// finishJob records a terminal state: outcome.json (durable terminal
// marker), report.json and metrics.prom (satellite observability —
// written on every stop path, not just success), the engine-counter
// aggregate, and the tenant slot release. The durable records are
// written BEFORE the in-memory state flips terminal, so anyone who
// observes a terminal job finds its spool complete; the finalized
// flag makes racing finishes (cancel-of-queued vs. worker pickup)
// exactly-once. The job's lease is re-verified first and removed
// after the outcome lands — a fenced job takes the no-write path.
func (s *Server) finishJob(j *job, state JobState, apiErr *apiError, res *sxnm.Result) {
	if !s.stillOwns(j) {
		s.finishFenced(j)
		return
	}
	snap := j.ob.Metrics().Snapshot()
	out := &Outcome{
		State:      state,
		FinishedAt: time.Now().UTC(),
	}
	if snap != (obs.Snapshot{}) {
		out.Stats = &snap
	}
	if apiErr != nil {
		out.Error = &apiErrorJSON{Code: apiErr.Code, Message: apiErr.Message}
	}
	if state == StateDone && res != nil {
		out.Summary = summaryOf(res)
		out.Clusters = clustersOf(res)
	}

	j.mu.Lock()
	if j.finalized {
		j.mu.Unlock()
		return
	}
	j.finalized = true
	out.Attempts = j.attempts
	j.mu.Unlock()

	// The terminal journal event lands BEFORE the in-memory state
	// flips (like outcome.json): whoever observes a terminal job can
	// already read its complete timeline.
	fin := JobEvent{Type: EventFinished, State: state, Attempt: out.Attempts, Progress: s.progressOf(j)}
	if apiErr != nil {
		fin.ErrorCode = apiErr.Code
	}
	s.journalAppend(j, fin)
	if err := s.spool.finish(j.id, out); err != nil {
		s.cfg.Logf("job %s: writing outcome: %v", j.id, err)
	} else {
		// Terminal jobs are identified by outcome.json; the lease has
		// done its work and would only confuse later reapers.
		s.spool.removeLease(j.id)
	}
	s.writeReports(j, snap)
	s.agg.add(snap)
	if !j.submitted.IsZero() {
		s.Hist.JobLatency.Observe(out.FinishedAt.Sub(j.submitted))
	}

	j.mu.Lock()
	j.state = state
	j.finished = out.FinishedAt
	if apiErr != nil {
		j.errCode, j.errMsg = apiErr.Code, apiErr.Message
	}
	j.lastSnap = snap
	j.result = out
	j.cancel = nil
	j.mu.Unlock()
	s.releaseTenant(j)
	switch state {
	case StateDone:
		s.Met.JobsDone.Add(1)
	case StateFailed:
		s.Met.JobsFailed.Add(1)
	}

	s.mu.Lock()
	if _, ok := s.jobs[j.id]; !ok {
		s.jobs[j.id] = j // recovery-path finishes register here
	}
	s.mu.Unlock()
}

// requeueJob parks an interrupted in-flight job back in the spool
// during a drain. No outcome.json is written — its absence is the
// resumable marker — but the run report and metrics of the partial
// attempt are (satellite: outputs on drain, not just completion).
// The lease is released so a surviving daemon adopts the job
// immediately instead of waiting out the TTL.
func (s *Server) requeueJob(j *job) {
	if !s.stillOwns(j) {
		s.finishFenced(j)
		return
	}
	snap := j.ob.Metrics().Snapshot()
	j.mu.Lock()
	j.state = StateQueued
	j.lastSnap = snap
	j.cancel = nil
	epoch := j.epoch
	j.mu.Unlock()
	s.journalAppend(j, JobEvent{Type: EventDrainPark, Cause: "drain", Progress: s.progressOf(j)})
	s.writeReports(j, snap)
	s.agg.add(snap)
	if epoch > 0 {
		if err := s.spool.renewLease(j.id, s.owner, epoch, time.Now().UTC(), true); err != nil && !errors.Is(err, errLeaseFenced) {
			s.cfg.Logf("job %s: releasing lease on requeue: %v", j.id, err)
		}
	}
	s.Met.JobsRequeued.Add(1)
	s.cfg.Logf("job %s: checkpointed and requeued by drain", j.id)
}

// releaseTenant frees the job's admission-control slot exactly once.
func (s *Server) releaseTenant(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	counted := j.counted
	j.counted = false
	j.mu.Unlock()
	if counted {
		if n := s.tenants[j.req.Tenant]; n <= 1 {
			delete(s.tenants, j.req.Tenant)
		} else {
			s.tenants[j.req.Tenant] = n - 1
		}
	}
}

// writeReports persists the job's run report and final engine counters
// next to its spooled state, atomically.
func (s *Server) writeReports(j *job, snap obs.Snapshot) {
	dir := s.spool.jobDir(j.id)
	rep := j.col.Report(j.ob.Metrics())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err == nil {
		if err := s.spool.writeFileAtomic(filepath.Join(dir, spoolReportFile), buf.Bytes()); err != nil {
			s.cfg.Logf("job %s: writing report: %v", j.id, err)
		}
	} else {
		s.cfg.Logf("job %s: rendering report: %v", j.id, err)
	}
	buf.Reset()
	if err := snap.WritePrometheus(&buf); err == nil {
		if err := s.spool.writeFileAtomic(filepath.Join(dir, spoolMetricsFile), buf.Bytes()); err != nil {
			s.cfg.Logf("job %s: writing metrics: %v", j.id, err)
		}
	}
}
