// Command sxnmd serves SXNM duplicate detection as a crash-tolerant
// daemon.
//
// Usage:
//
//	sxnmd -spool /var/lib/sxnmd [-addr :8080] [flags]
//
// Clients POST jobs (an XML document plus an SXNM configuration) to
// /v1/jobs and poll them; see the README's "Running as a service"
// section for the full API. The spool directory is the daemon's
// durable state: every admitted job lives there until it reaches a
// terminal state, together with its engine checkpoint, spill files,
// run report, and final metrics.
//
// Robustness model:
//
//   - Admission control: the queue is bounded (-queue-cap) and each
//     tenant is capped (-tenant-jobs); rejected submissions get a 429
//     with Retry-After. Per-job budgets (-max-* flags) are ceilings a
//     job's own limits may not exceed.
//   - Retries: transient faults restart the job with exponential
//     backoff and jitter up to -max-attempts; because every attempt
//     runs over the job's durable checkpoint, a retry resumes rather
//     than redoes. Invalid configs/documents and corrupt state fail
//     fast without retry.
//   - Panic containment: a panic inside the engine fails that one job;
//     the daemon keeps serving.
//   - Graceful drain: SIGTERM (or SIGINT) stops admission (/readyz
//     turns 503), interrupts in-flight jobs after their next durable
//     checkpoint, releases their leases, and exits once everything is
//     parked in the spool. The next sxnmd over the same -spool resumes
//     queued and in-flight jobs alike, completing them byte-identically
//     to an uninterrupted run.
//   - Shared spool: several sxnmd processes may point at one -spool.
//     Per-job lease files (-lease-ttl, -spool-owner) arbitrate
//     ownership; a daemon that dies without draining loses its jobs to
//     the survivors one TTL later, and they resume from its last
//     checkpoint. A stale owner that comes back fences itself off the
//     spool instead of double-writing.
//   - Spool lifecycle: terminal jobs are garbage-collected after
//     -gc-ttl; corrupt spool entries are moved into .quarantine/ with a
//     typed reason instead of crashing the daemon; -min-free-bytes (or
//     a live ENOSPC) closes admission with 507 + Retry-After until
//     space returns; -tenant-rps adds a per-tenant submission rate
//     limit on top of the concurrency caps.
//   - Observability: each job's spool directory carries a durable,
//     checksummed event journal (journal.jsonl) recording its full
//     lifecycle — across daemons and takeovers. GET
//     /v1/jobs/{id}/events streams it as SSE (replay then live tail),
//     GET /v1/fleet reports which owners hold which leases, and
//     /metrics adds queue-wait, attempt, end-to-end, and engine-phase
//     latency histograms. -journal=false turns the journal off;
//     -journal-max-bytes caps its growth.
//
// Exit codes: 0 = clean drain, 1 = startup or serve error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	sxnm "repro"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "sxnmd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a termination signal drains
// it. When ready is non-nil, the bound address is sent once the
// listener is up (tests use it to avoid port races).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("sxnmd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		spoolDir   = fs.String("spool", "", "durable job spool directory (required)")
		workers    = fs.Int("workers", 2, "concurrent job executors")
		queueCap   = fs.Int("queue-cap", 64, "max queued jobs before submissions are rejected 429")
		tenantJobs = fs.Int("tenant-jobs", 4, "max queued+running jobs per tenant")
		maxBody    = fs.Int64("max-body-bytes", 8<<20, "max POST /v1/jobs body size")
		attempts   = fs.Int("max-attempts", 3, "attempts per job before a transient fault becomes permanent")
		retryBase  = fs.Duration("retry-base", 100*time.Millisecond, "base retry backoff (doubled per attempt, with jitter)")
		retryMax   = fs.Duration("retry-max", 5*time.Second, "retry backoff ceiling")
		drainWait  = fs.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight jobs to checkpoint on shutdown")

		spoolOwner  = fs.String("spool-owner", "", "this daemon's lease owner id (default host-pid-random; pin it to reclaim your own leases instantly after a restart)")
		leaseTTL    = fs.Duration("lease-ttl", 15*time.Second, "lease lifetime beyond the last heartbeat; a daemon silent this long loses its jobs to takeover")
		gcTTL       = fs.Duration("gc-ttl", 0, "remove terminal jobs from the spool this long after they finish (0 = keep forever)")
		tenantRPS   = fs.Float64("tenant-rps", 0, "per-tenant submission rate limit in jobs/second (0 = unlimited)")
		tenantBurst = fs.Int("tenant-burst", 0, "per-tenant submission burst size (0 = max(1, ceil(tenant-rps)))")
		minFree     = fs.Int64("min-free-bytes", 0, "reject submissions 507 while the spool filesystem has less free space than this (0 = ENOSPC detection only)")

		defTimeout = fs.Duration("default-timeout", 0, "default per-job wall-clock budget (0 = unlimited)")
		maxTimeout = fs.Duration("max-timeout", 0, "per-job wall-clock ceiling jobs may not exceed (0 = unbounded)")
		maxDepth   = fs.Int("max-depth", 0, "per-job document depth ceiling (0 = unbounded)")
		maxNodes   = fs.Int("max-nodes", 0, "per-job document node ceiling (0 = unbounded)")
		maxCmp     = fs.Int("max-comparisons", 0, "per-job window-comparison ceiling (0 = unbounded)")

		journal      = fs.Bool("journal", true, "write a durable per-job event journal (journal.jsonl) into the spool")
		journalBytes = fs.Int64("journal-max-bytes", 1<<20, "per-job journal size soft cap; past it checkpoint-progress events are dropped (negative = unbounded)")

		pairWork  = fs.Int("pair-workers", -1, "window-sweep goroutines per job (-1 = all cores, 0 = sequential)")
		shards    = fs.Int("shards", 0, "split each key pass into this many concurrently swept window ranges (-1 = one per core, 0 = off)")
		simCache  = fs.Bool("sim-cache", true, "share similarity memo caches across jobs of the same config")
		simSize   = fs.Int("sim-cache-size", 0, "similarity cache capacity per candidate (0 = default)")
		spillRows = fs.Int("spill-rows", 0, "external-sort candidates above this many GK rows (0 = in-memory)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spoolDir == "" {
		return errors.New("-spool is required")
	}

	logger := log.New(os.Stderr, "sxnmd: ", log.LstdFlags)
	srv, err := server.New(server.Config{
		SpoolDir:        *spoolDir,
		OwnerID:         *spoolOwner,
		LeaseTTL:        *leaseTTL,
		GCTTL:           *gcTTL,
		TenantRPS:       *tenantRPS,
		TenantBurst:     *tenantBurst,
		MinFreeBytes:    *minFree,
		QueueCap:        *queueCap,
		Workers:         *workers,
		PerTenantJobs:   *tenantJobs,
		MaxBodyBytes:    *maxBody,
		MaxAttempts:     *attempts,
		RetryBaseDelay:  *retryBase,
		RetryMaxDelay:   *retryMax,
		DisableJournal:  !*journal,
		JournalMaxBytes: *journalBytes,
		DefaultLimits:   sxnm.Limits{Timeout: *defTimeout},
		MaxLimits: sxnm.Limits{
			Timeout:        *maxTimeout,
			MaxDepth:       *maxDepth,
			MaxNodes:       *maxNodes,
			MaxComparisons: *maxCmp,
		},
		Engine: sxnm.Options{
			PairWorkers:        *pairWork,
			Shards:             *shards,
			SimCache:           *simCache,
			SimCacheSize:       *simSize,
			SpillThresholdRows: *spillRows,
		},
		Logf: logger.Printf,
	})
	if err != nil {
		return err
	}

	// Take over SIGTERM/SIGINT before the listener exists: a signal that
	// arrives as soon as /readyz answers must drain, not kill, the
	// daemon.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("listening on %s, spool %s", ln.Addr(), *spoolDir)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Printf("draining: admission closed, checkpointing in-flight jobs")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	// Shut the listener down after the drain so /readyz keeps
	// answering 503 while in-flight jobs park themselves.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return drainErr
	}
	logger.Printf("drained cleanly; spool %s is ready for the next generation", *spoolDir)
	return nil
}
