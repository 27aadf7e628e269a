// Package server is the sxnmd daemon core: a bounded job queue with
// admission control in front of a worker pool running the SXNM engine,
// built so that losing the process never loses work. Every admitted
// job is spooled to disk before it is acknowledged; running jobs
// checkpoint through the engine's crash-safe checkpoint machinery; a
// drain (SIGTERM) interrupts in-flight jobs after their next
// checkpoint and leaves both them and the queue on disk.
//
// The spool is a SHARED substrate: any number of daemons may serve the
// same directory. Per-job lease files with fencing epochs (lease.go)
// arbitrate ownership; each daemon heartbeats the leases it holds and
// runs a reaper that takes over the queued and in-flight jobs of
// owners that stopped heartbeating, resuming them from their durable
// checkpoints. The reaper doubles as the spool's lifecycle manager:
// TTL garbage collection of terminal jobs, quarantine of corrupt
// entries, and the disk-pressure probe that gates admission.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	sxnm "repro"
	"repro/internal/obs"
)

// Config tunes a Server. The zero value is usable except for
// SpoolDir, which is required.
type Config struct {
	// SpoolDir is the daemon's durable root; see the spool layout in
	// spool.go. Required. Several daemons may share one SpoolDir.
	SpoolDir string

	// OwnerID names this daemon in lease files. It must be unique among
	// daemons sharing a spool; empty derives host-pid-random, which is.
	OwnerID string
	// LeaseTTL is how long a lease outlives its last heartbeat; a
	// silent owner's jobs are taken over after it. Default 15s.
	LeaseTTL time.Duration
	// HeartbeatInterval is the lease renewal cadence. Default LeaseTTL/3.
	HeartbeatInterval time.Duration
	// ReapInterval is the spool sweep cadence (takeovers, GC,
	// quarantine, disk probe). Default LeaseTTL/2.
	ReapInterval time.Duration
	// GCTTL removes a terminal job's spool directory once its outcome
	// is older than this; its id then answers 404. 0 disables GC.
	GCTTL time.Duration

	// QueueCap bounds the number of queued-but-not-running jobs; a
	// submission beyond it is rejected 429 with Retry-After. Default 64.
	QueueCap int
	// Workers is the number of concurrent job executors. Default 2.
	Workers int
	// PerTenantJobs caps one tenant's queued+running jobs. Default 4.
	PerTenantJobs int
	// TenantRPS adds a per-tenant token-bucket rate limit on
	// submissions (tokens/second); 0 disables it. TenantBurst is the
	// bucket size (default max(1, ceil(TenantRPS))).
	TenantRPS   float64
	TenantBurst int
	// MaxBodyBytes bounds the POST /v1/jobs body. Default 8 MiB.
	MaxBodyBytes int64
	// MinFreeBytes rejects admissions with 507 while the spool
	// filesystem has less free space than this. 0 disables the
	// threshold; ENOSPC during a spool write still trips the gate.
	MinFreeBytes int64
	// FreeBytes probes free space under a directory; nil uses the
	// platform statfs (tests inject fakes).
	FreeBytes func(dir string) (uint64, error)

	// DefaultLimits apply to jobs that do not set their own; MaxLimits
	// is the per-job budget ceiling enforced at admission (zero fields
	// are unbounded dimensions).
	DefaultLimits sxnm.Limits
	MaxLimits     sxnm.Limits

	// MaxAttempts bounds how often one job is tried before a transient
	// fault becomes permanent. Default 3. Typed corrupt/config faults
	// and budget breaches never retry.
	MaxAttempts int
	// RetryBaseDelay seeds the exponential backoff between attempts
	// (doubled per retry, ±50% jitter, capped at RetryMaxDelay).
	// Defaults 100ms / 5s.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// Engine carries the base run options applied to every job
	// (PairWorkers, SimCache, UseFilter, SpillThresholdRows, ...).
	// Observer, SpillDir, and SimCacheFor are per-job and overwritten.
	Engine sxnm.Options

	// CacheEntries / CacheMaxDescSets bound the shared similarity cache
	// pool (see cachePool). Zero means defaults.
	CacheEntries     int
	CacheMaxDescSets int64

	// CheckpointFS, when set, routes all checkpoint AND spool I/O
	// through it — the fault-injection seam of the kill harnesses.
	// Nil means the real filesystem.
	CheckpointFS sxnm.CheckpointFS

	// Runner, when set, replaces the engine invocation itself (tests
	// inject faults and probes here). doc reads the job's document
	// bytes; no tree is built for it. The default runs
	// det.RunCheckpointedFSContext over them and the job's spooled
	// checkpoint directory: one token scan builds the GK rows and the
	// fingerprint the checkpoint is bound to.
	Runner func(ctx context.Context, det *sxnm.Detector, doc io.Reader, fsys sxnm.CheckpointFS, ckptDir string) (*sxnm.Result, error)

	// DisableJournal turns off the per-job event journal
	// (journal.jsonl; see journal.go). On by default — the journal is
	// how a job's cross-daemon timeline stays reconstructible.
	DisableJournal bool
	// JournalMaxBytes soft-caps one job's journal: past it,
	// high-rate checkpoint-progress events are dropped (and counted)
	// while lifecycle events still append. 0 means 1 MiB; negative
	// means unbounded.
	JournalMaxBytes int64
	// EventPollInterval is the tail-poll cadence of the
	// GET /v1/jobs/{id}/events stream. Default 250ms.
	EventPollInterval time.Duration

	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.OwnerID == "" {
		out.OwnerID = defaultOwnerID()
	}
	if out.LeaseTTL <= 0 {
		out.LeaseTTL = 15 * time.Second
	}
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = out.LeaseTTL / 3
	}
	if out.HeartbeatInterval < time.Millisecond {
		out.HeartbeatInterval = time.Millisecond
	}
	if out.ReapInterval <= 0 {
		out.ReapInterval = out.LeaseTTL / 2
	}
	if out.ReapInterval < time.Millisecond {
		out.ReapInterval = time.Millisecond
	}
	if out.QueueCap <= 0 {
		out.QueueCap = 64
	}
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.PerTenantJobs <= 0 {
		out.PerTenantJobs = 4
	}
	if out.MaxBodyBytes <= 0 {
		out.MaxBodyBytes = 8 << 20
	}
	if out.FreeBytes == nil {
		out.FreeBytes = osFreeBytes
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 3
	}
	if out.RetryBaseDelay <= 0 {
		out.RetryBaseDelay = 100 * time.Millisecond
	}
	if out.RetryMaxDelay <= 0 {
		out.RetryMaxDelay = 5 * time.Second
	}
	if out.CheckpointFS == nil {
		out.CheckpointFS = sxnm.OSCheckpointFS()
	}
	if out.JournalMaxBytes == 0 {
		out.JournalMaxBytes = 1 << 20
	}
	if out.EventPollInterval <= 0 {
		out.EventPollInterval = 250 * time.Millisecond
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

func defaultOwnerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "sxnmd"
	}
	return fmt.Sprintf("%s-%d-%s", host, os.Getpid(), randSuffix()[:4])
}

// Server is one daemon generation: it claims what it can from the
// spool at construction, serves the job API, heartbeats its leases,
// reaps dead owners' work, and on Drain releases every lease it holds
// with all unfinished work parked back in the spool.
type Server struct {
	cfg     Config
	owner   string
	spool   *spool
	pool    *cachePool
	limiter *rateLimiter
	Met     Metrics
	Hist    ServerHistograms
	phases  *obs.PhaseHistograms
	agg     engineAgg

	diskLow atomic.Bool

	drainCtx    context.Context
	cancelDrain context.CancelFunc
	bgCtx       context.Context
	cancelBg    context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	tenants  map[string]int // queued+running jobs per tenant
	queue    chan *job
	draining bool

	wg   sync.WaitGroup
	bgWg sync.WaitGroup
}

// New builds a Server over cfg.SpoolDir, runs one synchronous spool
// sweep (claiming unowned unfinished jobs, reloading finished
// outcomes for queryability, quarantining corrupt entries), and
// starts the worker pool plus the heartbeat and reaper loops.
func New(cfg Config) (*Server, error) {
	if cfg.SpoolDir == "" {
		return nil, fmt.Errorf("server: Config.SpoolDir is required")
	}
	c := cfg.withDefaults()
	sp, err := newSpool(c.SpoolDir, c.CheckpointFS)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     c,
		owner:   c.OwnerID,
		spool:   sp,
		pool:    newCachePool(c.CacheEntries, c.Engine.SimCacheSize, c.CacheMaxDescSets),
		limiter: newRateLimiter(c.TenantRPS, c.TenantBurst, nil),
		phases:  obs.NewPhaseHistograms(),
		jobs:    make(map[string]*job),
		tenants: make(map[string]int),
		// Admission bounds the queue by the QueueDepth gauge, not the
		// channel; the extra capacity is slack for adopted jobs. A sweep
		// that finds the channel full releases the lease and retries
		// later, so adoption self-throttles to worker drain.
		queue: make(chan *job, c.QueueCap+1024),
	}
	s.drainCtx, s.cancelDrain = context.WithCancel(context.Background())
	s.bgCtx, s.cancelBg = context.WithCancel(context.Background())

	// Synchronous first pass: workers not started, no concurrency yet.
	// The disk check runs before any admission so a daemon started on a
	// full disk rejects from its very first request instead of accepting
	// jobs until the first reap cycle.
	s.diskPressureCheck()
	s.sweepSpool()

	for i := 0; i < c.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	s.bgWg.Add(2)
	go s.heartbeatLoop()
	go s.reaperLoop()
	return s, nil
}

// sweepSpool is one pass of the spool lifecycle: quarantine corrupt
// entries, GC expired terminal ones, register other daemons' finished
// jobs for queryability, and adopt unfinished jobs whose lease is
// absent, released, expired, corrupt, or a ghost of our own owner id.
func (s *Server) sweepSpool() {
	now := time.Now().UTC()
	entries, err := s.spool.scan()
	if err != nil {
		s.cfg.Logf("spool: sweep: %v", err)
		return
	}
	for _, ent := range entries {
		if s.activeInMemory(ent.id) {
			// A job this daemon is actively serving: only tidy lease
			// debris; never quarantine or reclaim under our own feet.
			s.spool.sweepLeaseDebris(ent.id, now, s.cfg.LeaseTTL)
			continue
		}
		if ent.rec == nil {
			s.quarantineEntry(ent.id, fmt.Sprintf("corrupt spool entry: %v", ent.err), now)
			continue
		}
		out, oerr := s.spool.loadOutcome(ent.id)
		if oerr != nil {
			s.quarantineEntry(ent.id, fmt.Sprintf("corrupt outcome: %v", oerr), now)
			continue
		}
		if out != nil {
			if s.cfg.GCTTL > 0 && now.Sub(out.FinishedAt) > s.cfg.GCTTL {
				s.gcJob(ent.id)
			} else {
				s.registerTerminal(ent.rec, out)
			}
			continue
		}
		s.adoptJob(ent, now)
	}
	s.spool.sweepAdmissionDebris(now, 10*s.cfg.LeaseTTL)
	s.limiter.prune(10 * time.Minute)
}

// activeInMemory reports whether this daemon currently tracks id as a
// non-terminal job it owns.
func (s *Server) activeInMemory(id string) bool {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.state.Terminal()
}

// registerTerminal makes another generation's (or daemon's) finished
// job queryable from its spooled outcome.
func (s *Server) registerTerminal(rec *spooledJob, out *Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[rec.ID]; ok {
		return
	}
	j := s.newJob(rec.ID, rec.Request, rec.Submitted)
	j.state = out.State
	j.attempts = out.Attempts
	j.finished = out.FinishedAt
	j.finalized = true
	j.result = out
	if out.Error != nil {
		j.errCode, j.errMsg = out.Error.Code, out.Error.Message
	}
	if out.Stats != nil {
		j.lastSnap = *out.Stats
	}
	s.jobs[rec.ID] = j
}

// adoptJob tries to claim one unfinished spool entry and enqueue it.
func (s *Server) adoptJob(ent spoolEntry, now time.Time) {
	lease, lerr := s.spool.loadLease(ent.id)
	switch {
	case lerr == nil && lease == nil:
		// unleased: claimable
	case lerr != nil && errors.Is(lerr, errLeaseCorrupt):
		// corrupt lease: claimable (treated as expired)
	case lerr != nil:
		s.cfg.Logf("spool: job %s: reading lease: %v", ent.id, lerr)
		return
	case lease.Owner == s.owner, lease.Released, lease.Expired(now, s.cfg.LeaseTTL):
		// our own ghost, a clean hand-off, or a dead owner: claimable
	default:
		return // live lease held by another daemon
	}
	epoch, err := s.spool.takeoverLease(ent.id, s.owner, now, s.cfg.LeaseTTL)
	if errors.Is(err, errLeaseHeld) {
		return // a racing reaper won; rescan next tick
	}
	if err != nil {
		s.cfg.Logf("spool: job %s: lease takeover: %v", ent.id, err)
		return
	}
	if epoch > 1 {
		s.Met.LeaseTakeovers.Add(1)
	} else {
		s.Met.LeasesAcquired.Add(1)
	}

	j := s.newJob(ent.id, ent.rec.Request, ent.rec.Submitted)
	j.epoch = epoch
	j.resumed = true
	s.attachJournal(j)
	// The journal travels with the job directory, so this append lands
	// in the SAME file the previous owner wrote: the takeover is one
	// more entry in one continuous timeline. The fenced event for the
	// displaced owner is written here by the NEW owner — the fenced
	// daemon itself must never touch the spool again, so it cannot
	// record its own demise.
	takeover := JobEvent{Type: EventTakeover, Epoch: epoch}
	if lease != nil {
		takeover.PrevOwner, takeover.PrevEpoch = lease.Owner, lease.Epoch
	}
	s.journalAppend(j, takeover)
	if lease != nil && lease.Owner != s.owner && epoch > lease.Epoch {
		s.journalAppend(j, JobEvent{Type: EventFenced, Owner: lease.Owner, Epoch: lease.Epoch,
			Cause: fmt.Sprintf("lease expired; taken over by %s at epoch %d", s.owner, epoch)})
	}
	apiErr := ent.rec.Request.validate()
	if apiErr == nil {
		_, apiErr = ent.rec.Request.CompileConfig()
	}
	if apiErr == nil {
		j.limits, apiErr = effectiveLimits(ent.rec.Request.Limits, s.cfg.DefaultLimits, s.cfg.MaxLimits)
	}
	if apiErr != nil {
		// A previously admitted job whose request no longer validates is
		// finished as failed rather than crash-looping any daemon.
		s.finishJob(j, StateFailed, apiErr, nil)
		return
	}
	s.mu.Lock()
	ok := !s.draining && s.tryEnqueueLocked(j)
	s.mu.Unlock()
	if !ok {
		// No room this pass (or we are shutting down): hand the lease
		// back so any daemon — including us, later — can claim it.
		s.spool.renewLease(ent.id, s.owner, epoch, now, true)
		return
	}
	s.Met.JobsResumed.Add(1)
	s.cfg.Logf("spool: adopted job %s (epoch %d, submitted %s)", ent.id, epoch, ent.rec.Submitted.Format(time.RFC3339))
}

// quarantineEntry moves a corrupt entry aside; the daemon stays up.
func (s *Server) quarantineEntry(id, reason string, now time.Time) {
	if !s.cfg.DisableJournal {
		// Written BEFORE the rename so the event travels with the
		// quarantined directory — the journal explains why it is there.
		s.appendEvent(s.spool.openJournal(id, s.cfg.JournalMaxBytes),
			JobEvent{Job: id, Type: EventQuarantined, Owner: s.owner, Cause: reason, Time: now})
	}
	if err := s.spool.quarantine(id, reason, now); err != nil {
		s.cfg.Logf("spool: job %s: quarantine failed: %v", id, err)
		return
	}
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
	s.Met.JobsQuarantined.Add(1)
	s.cfg.Logf("spool: quarantined job %s: %s", id, reason)
}

// gcJob removes an expired terminal job; its id answers 404 afterward.
func (s *Server) gcJob(id string) {
	if err := s.spool.remove(id); err != nil {
		s.cfg.Logf("spool: job %s: gc: %v", id, err)
		return
	}
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
	s.Met.JobsGCed.Add(1)
	s.cfg.Logf("spool: gc'd terminal job %s", id)
}

// heartbeatLoop renews every lease this daemon holds at
// HeartbeatInterval. A renewal that comes back fenced means a reaper
// legitimately took the job while we were silent: the job is flagged
// and its run context canceled; it will finalize locally without
// touching the spool.
func (s *Server) heartbeatLoop() {
	defer s.bgWg.Done()
	t := time.NewTicker(s.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.bgCtx.Done():
			return
		case <-t.C:
			s.renewOwnedLeases()
		}
	}
}

func (s *Server) renewOwnedLeases() {
	now := time.Now().UTC()
	s.mu.Lock()
	owned := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		j.mu.Lock()
		if !j.state.Terminal() && j.epoch > 0 && !j.fenced {
			owned = append(owned, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, j := range owned {
		j.mu.Lock()
		epoch := j.epoch
		j.mu.Unlock()
		err := s.spool.renewLease(j.id, s.owner, epoch, now, false)
		switch {
		case errors.Is(err, errLeaseFenced):
			s.fenceJob(j)
		case err != nil:
			// Keep trying: if the disk stays dead the lease expires and
			// another daemon takes the job — exactly the intended failover.
			s.cfg.Logf("job %s: lease renewal: %v", j.id, err)
		}
	}
}

// fenceJob marks a job lost to a takeover and cancels its run. The
// worker finalizes it locally (finishFenced); nothing is written to
// the spool — the new owner's records are the truth now.
func (s *Server) fenceJob(j *job) {
	j.mu.Lock()
	if j.fenced || j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.fenced = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.cfg.Logf("job %s: lease fenced (epoch superseded); abandoning local attempt", j.id)
}

// reaperLoop periodically sweeps the spool and probes disk pressure.
func (s *Server) reaperLoop() {
	defer s.bgWg.Done()
	t := time.NewTicker(s.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.bgCtx.Done():
			return
		case <-t.C:
			s.diskPressureCheck()
			s.sweepSpool()
		}
	}
}

// diskPressureCheck maintains the admission gate: below MinFreeBytes
// (when configured) admission stays closed; a gate tripped by ENOSPC
// reopens only after a successful durable write probe.
func (s *Server) diskPressureCheck() {
	low := false
	if s.cfg.MinFreeBytes > 0 {
		if free, err := s.cfg.FreeBytes(s.spool.root); err == nil && free < uint64(s.cfg.MinFreeBytes) {
			low = true
		}
	}
	if !low && s.diskLow.Load() {
		if err := s.spool.probeWrite(); err != nil {
			low = true
		}
	}
	s.setDiskLow(low)
}

func (s *Server) setDiskLow(low bool) {
	s.diskLow.Store(low)
	if low {
		s.Met.DiskPressure.Store(1)
	} else {
		s.Met.DiskPressure.Store(0)
	}
}

func isDiskFull(err error) bool { return errors.Is(err, syscall.ENOSPC) }

func diskFullError() *apiError {
	return &apiError{Status: http.StatusInsufficientStorage, Code: "spool-disk-full",
		Message:    "spool filesystem is out of space; retry after the operator frees room",
		RetryAfter: 15 * time.Second}
}

func (s *Server) newJob(id string, req *JobRequest, submitted time.Time) *job {
	col := sxnm.NewCollector()
	j := &job{
		id:        id,
		req:       req,
		submitted: submitted,
		ob:        sxnm.NewObserver(col),
		col:       col,
		state:     StateQueued,
	}
	// Every job's spans also feed the daemon-wide phase histograms,
	// so /metrics exposes engine phase latency across all jobs.
	j.ob.AddSink(s.phases)
	return j
}

// attachJournal binds j to its spool journal (unless journaling is
// off) and routes the engine's checkpoint spans into it.
func (s *Server) attachJournal(j *job) {
	if s.cfg.DisableJournal {
		return
	}
	j.jr = s.spool.openJournal(j.id, s.cfg.JournalMaxBytes)
	j.ob.AddSink(&progressSink{s: s, j: j})
}

// Submit admits one validated request: config compiled, limits checked
// against the budget ceiling, disk pressure and the tenant token
// bucket consulted, tenant and queue capacity enforced, the job
// spooled durably and its lease claimed, then enqueued. Every
// rejection is a typed *apiError; Retry-After accompanies the
// capacity, rate, and disk ones.
func (s *Server) Submit(req *JobRequest) (*job, *apiError) {
	if _, apiErr := req.CompileConfig(); apiErr != nil {
		return nil, apiErr
	}
	limits, apiErr := effectiveLimits(req.Limits, s.cfg.DefaultLimits, s.cfg.MaxLimits)
	if apiErr != nil {
		return nil, apiErr
	}
	if s.diskLow.Load() {
		s.Met.RejectsDisk.Add(1)
		return nil, diskFullError()
	}
	if ok, wait := s.limiter.allow(req.Tenant); !ok {
		s.Met.RejectsRate.Add(1)
		return nil, &apiError{Status: http.StatusTooManyRequests, Code: "tenant-rate-limited",
			Message:    fmt.Sprintf("tenant %q exceeded its %.3g submissions/s budget", req.Tenant, s.cfg.TenantRPS),
			RetryAfter: wait}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &apiError{Status: http.StatusServiceUnavailable, Code: "draining",
			Message: "daemon is draining; submit to its successor", RetryAfter: 10 * time.Second}
	}
	if int(s.Met.QueueDepth.Load()) >= s.cfg.QueueCap {
		s.Met.RejectsFull.Add(1)
		s.mu.Unlock()
		return nil, &apiError{Status: http.StatusTooManyRequests, Code: "queue-full",
			Message: fmt.Sprintf("job queue is at capacity (%d)", s.cfg.QueueCap), RetryAfter: 5 * time.Second}
	}
	if s.tenants[req.Tenant] >= s.cfg.PerTenantJobs {
		s.Met.RejectsTenant.Add(1)
		s.mu.Unlock()
		return nil, &apiError{Status: http.StatusTooManyRequests, Code: "tenant-busy",
			Message:    fmt.Sprintf("tenant %q already has %d active job(s)", req.Tenant, s.cfg.PerTenantJobs),
			RetryAfter: 5 * time.Second}
	}

	j := s.newJob(newJobID(), req, time.Now().UTC())
	j.limits = limits
	if err := s.spool.admit(j); err != nil {
		s.mu.Unlock()
		return nil, s.admissionWriteFailed(j, err, "spooling")
	}
	if err := s.spool.claimLease(j.id, s.owner, 1, time.Now().UTC()); err != nil {
		// Without a lease another daemon could adopt the job while we
		// also run it; rather than risk a double run, un-admit.
		s.spool.remove(j.id)
		s.mu.Unlock()
		return nil, s.admissionWriteFailed(j, err, "leasing")
	}
	j.epoch = 1
	s.Met.LeasesAcquired.Add(1)
	s.attachJournal(j)
	s.journalAppend(j, JobEvent{Type: EventAdmitted, Time: j.submitted})
	s.enqueueLocked(j)
	s.Met.JobsAccepted.Add(1)
	s.mu.Unlock()
	return j, nil
}

// admissionWriteFailed maps a failed admission-time spool write to the
// right typed rejection, tripping the disk-pressure gate on ENOSPC.
func (s *Server) admissionWriteFailed(j *job, err error, what string) *apiError {
	s.cfg.Logf("spool: %s %s: %v", what, j.id, err)
	if isDiskFull(err) {
		s.setDiskLow(true)
		s.Met.RejectsDisk.Add(1)
		return diskFullError()
	}
	return &apiError{Status: http.StatusInternalServerError, Code: "spool-error",
		Message: "persisting the job failed; nothing was admitted"}
}

// enqueueLocked registers j and places it on the queue. Callers hold
// s.mu. Admission has already bounded QueueDepth below QueueCap, so
// the channel (QueueCap + slack) always has room here.
func (s *Server) enqueueLocked(j *job) {
	if !s.tryEnqueueLocked(j) {
		// Cannot happen while admission respects QueueCap; survive a
		// future accounting bug as a typed failure, not a deadlock.
		s.cfg.Logf("job %s: queue channel full at admission; failing", j.id)
		go s.finishJob(j, StateFailed, &apiError{Code: "queue-overflow",
			Message: "internal queue accounting overflow"}, nil)
		return
	}
}

func (s *Server) tryEnqueueLocked(j *job) bool {
	// Every send on the queue happens under s.mu, so a slot free now is
	// still free at the send below.
	if len(s.queue) == cap(s.queue) {
		return false
	}
	j.mu.Lock()
	j.enqueued = time.Now().UTC()
	j.mu.Unlock()
	// Journal the queued event before the send: from then on a worker
	// may already be journaling the job's attempt-start.
	s.journalAppend(j, JobEvent{Type: EventQueued})
	s.queue <- j
	s.jobs[j.id] = j
	s.tenants[j.req.Tenant]++
	j.counted = true
	s.Met.QueueDepth.Add(1)
	return true
}

// Job returns the in-memory record for id, or nil.
func (s *Server) Job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Cancel flags the job; queued jobs finish as canceled immediately,
// running ones are interrupted at their next cooperative poll — a
// retry backoff sleep counts as one — and finish as canceled with
// partial stats. Returns the job, whether the call changed anything,
// or nil if the id is unknown.
func (s *Server) Cancel(id string) (*job, bool) {
	j := s.Job(id)
	if j == nil {
		return nil, false
	}
	st := j.requestCancel()
	if st.Terminal() {
		return j, false
	}
	if st == StateQueued {
		// Finalize now; the worker that eventually pulls the job from
		// the channel skips terminal jobs. The spool keeps the record
		// with a canceled outcome.
		s.finishJob(j, StateCanceled, &apiError{Code: "canceled", Message: "canceled before running"}, nil)
	}
	s.Met.JobsCanceled.Add(1)
	return j, true
}

// Draining reports whether Drain has begun (readiness turns false).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops this generation: admission closes, the
// heartbeat and reaper stop, running jobs are interrupted (their
// progress checkpoints durably and they return to queued on disk),
// queued jobs simply stay spooled, and every lease this daemon still
// holds is released so any surviving daemon adopts the work
// immediately instead of waiting out the TTL. ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.Met.Draining.Store(1)
	s.mu.Unlock()

	s.cancelBg()
	s.cancelDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.bgWg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.releaseHeldLeases()
		return nil
	case <-ctx.Done():
		// Leases stay un-released; they expire after LeaseTTL, so the
		// work is still adopted — just not instantly.
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// releaseHeldLeases writes released=true into every lease this daemon
// still holds for non-terminal jobs (the queued ones a drain leaves
// behind; requeueJob already released the interrupted running ones).
func (s *Server) releaseHeldLeases() {
	now := time.Now().UTC()
	s.mu.Lock()
	held := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		j.mu.Lock()
		if !j.state.Terminal() && j.epoch > 0 && !j.fenced {
			held = append(held, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, j := range held {
		j.mu.Lock()
		epoch := j.epoch
		j.mu.Unlock()
		if err := s.spool.renewLease(j.id, s.owner, epoch, now, true); err != nil && !errors.Is(err, errLeaseFenced) {
			s.cfg.Logf("job %s: releasing lease: %v", j.id, err)
		}
	}
}

// aggregateSnapshot sums the engine counters of finished jobs and all
// currently live observers.
func (s *Server) aggregateSnapshot() sxnm.MetricsSnapshot {
	s.mu.Lock()
	live := make([]sxnm.MetricsSnapshot, 0, len(s.jobs))
	for _, j := range s.jobs {
		j.mu.Lock()
		running := j.state == StateRunning
		j.mu.Unlock()
		if running {
			live = append(live, j.ob.Metrics().Snapshot())
		}
	}
	s.mu.Unlock()
	return s.agg.total(live...)
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// time-derived id rather than refusing service.
		return fmt.Sprintf("j-t%x", time.Now().UnixNano())
	}
	return "j-" + hex.EncodeToString(b[:])
}
