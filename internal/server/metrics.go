package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Metrics is the daemon's own counter set, exported at /metrics in
// Prometheus text format alongside an aggregate of the engine counters
// (internal/obs) across every job this process has run. All fields
// are atomics; the zero value is ready to use.
type Metrics struct {
	JobsAccepted    atomic.Int64 // admitted submissions
	JobsDone        atomic.Int64
	JobsFailed      atomic.Int64
	JobsCanceled    atomic.Int64
	JobsResumed     atomic.Int64 // jobs re-enqueued from the spool at startup
	JobsRequeued    atomic.Int64 // in-flight jobs checkpointed back to queued by a drain
	Retries         atomic.Int64 // job attempts restarted after a transient fault
	RejectsFull     atomic.Int64 // submissions rejected because the queue was full
	RejectsTenant   atomic.Int64 // submissions rejected by the per-tenant cap
	RejectsRate     atomic.Int64 // submissions rejected by the per-tenant token bucket
	RejectsDisk     atomic.Int64 // submissions rejected 507 by the disk-pressure gate
	PanicsContained atomic.Int64

	LeasesAcquired  atomic.Int64 // fresh epoch-1 lease claims (admission + adoption)
	LeaseTakeovers  atomic.Int64 // expired/released/corrupt leases taken over (epoch bumped)
	LeasesFenced    atomic.Int64 // local jobs abandoned after losing their lease
	JobsQuarantined atomic.Int64 // corrupt spool entries moved into .quarantine/
	JobsGCed        atomic.Int64 // terminal spool entries removed after GCTTL

	JournalEvents  atomic.Int64 // events appended to per-job journals
	JournalDropped atomic.Int64 // progress events dropped by the journal size cap
	JournalErrors  atomic.Int64 // journal appends that failed (logged, never fatal)

	QueueDepth   atomic.Int64 // gauge: jobs waiting for a worker
	RunningJobs  atomic.Int64 // gauge: jobs currently executing
	Draining     atomic.Int64 // gauge: 1 while the daemon drains
	DiskPressure atomic.Int64 // gauge: 1 while admission is closed for disk space
}

// ServerHistograms holds the daemon's latency distributions, exported
// as Prometheus histograms at /metrics. The zero value is ready to
// use; all observation paths are atomic.
type ServerHistograms struct {
	// QueueWait is submission-accepted (or requeue) to worker pickup.
	QueueWait obs.Histogram
	// Attempt is the duration of one engine attempt, successful or not.
	Attempt obs.Histogram
	// JobLatency is end-to-end: submission to terminal state.
	JobLatency obs.Histogram
}

type srvRow struct {
	name string
	kind string
	help string
	val  func(*Metrics) float64
}

var srvRows = []srvRow{
	{"sxnmd_jobs_accepted_total", "counter", "Job submissions admitted to the queue.", func(m *Metrics) float64 { return float64(m.JobsAccepted.Load()) }},
	{"sxnmd_jobs_done_total", "counter", "Jobs that completed successfully.", func(m *Metrics) float64 { return float64(m.JobsDone.Load()) }},
	{"sxnmd_jobs_failed_total", "counter", "Jobs that ended in a typed failure.", func(m *Metrics) float64 { return float64(m.JobsFailed.Load()) }},
	{"sxnmd_jobs_canceled_total", "counter", "Jobs canceled by their submitter.", func(m *Metrics) float64 { return float64(m.JobsCanceled.Load()) }},
	{"sxnmd_jobs_resumed_total", "counter", "Jobs re-enqueued from the spool at daemon startup.", func(m *Metrics) float64 { return float64(m.JobsResumed.Load()) }},
	{"sxnmd_jobs_requeued_total", "counter", "In-flight jobs checkpointed back to the queue by a drain.", func(m *Metrics) float64 { return float64(m.JobsRequeued.Load()) }},
	{"sxnmd_retries_total", "counter", "Job attempts restarted after a transient fault.", func(m *Metrics) float64 { return float64(m.Retries.Load()) }},
	{"sxnmd_admission_rejects_full_total", "counter", "Submissions rejected because the job queue was full.", func(m *Metrics) float64 { return float64(m.RejectsFull.Load()) }},
	{"sxnmd_admission_rejects_tenant_total", "counter", "Submissions rejected by the per-tenant concurrency cap.", func(m *Metrics) float64 { return float64(m.RejectsTenant.Load()) }},
	{"sxnmd_admission_rejects_rate_total", "counter", "Submissions rejected by the per-tenant token-bucket rate limit.", func(m *Metrics) float64 { return float64(m.RejectsRate.Load()) }},
	{"sxnmd_admission_rejects_disk_total", "counter", "Submissions rejected 507 by the disk-pressure gate.", func(m *Metrics) float64 { return float64(m.RejectsDisk.Load()) }},
	{"sxnmd_panics_contained_total", "counter", "Worker panics recovered without taking the daemon down.", func(m *Metrics) float64 { return float64(m.PanicsContained.Load()) }},
	{"sxnmd_leases_acquired_total", "counter", "Fresh epoch-1 job leases claimed by this daemon.", func(m *Metrics) float64 { return float64(m.LeasesAcquired.Load()) }},
	{"sxnmd_lease_takeovers_total", "counter", "Expired, released, or corrupt leases taken over from other owners.", func(m *Metrics) float64 { return float64(m.LeaseTakeovers.Load()) }},
	{"sxnmd_leases_fenced_total", "counter", "Local jobs abandoned after their lease was taken over.", func(m *Metrics) float64 { return float64(m.LeasesFenced.Load()) }},
	{"sxnmd_jobs_quarantined_total", "counter", "Corrupt spool entries moved into quarantine.", func(m *Metrics) float64 { return float64(m.JobsQuarantined.Load()) }},
	{"sxnmd_jobs_gced_total", "counter", "Terminal spool entries garbage-collected after their TTL.", func(m *Metrics) float64 { return float64(m.JobsGCed.Load()) }},
	{"sxnmd_journal_events_total", "counter", "Events appended to per-job event journals.", func(m *Metrics) float64 { return float64(m.JournalEvents.Load()) }},
	{"sxnmd_journal_dropped_total", "counter", "Progress events dropped by the journal size cap.", func(m *Metrics) float64 { return float64(m.JournalDropped.Load()) }},
	{"sxnmd_journal_errors_total", "counter", "Journal appends that failed; journaling is best-effort.", func(m *Metrics) float64 { return float64(m.JournalErrors.Load()) }},
	{"sxnmd_queue_depth", "gauge", "Jobs waiting for a worker.", func(m *Metrics) float64 { return float64(m.QueueDepth.Load()) }},
	{"sxnmd_running_jobs", "gauge", "Jobs currently executing.", func(m *Metrics) float64 { return float64(m.RunningJobs.Load()) }},
	{"sxnmd_draining", "gauge", "1 while the daemon is draining, 0 otherwise.", func(m *Metrics) float64 { return float64(m.Draining.Load()) }},
	{"sxnmd_disk_pressure", "gauge", "1 while admission is closed because the spool disk is full.", func(m *Metrics) float64 { return float64(m.DiskPressure.Load()) }},
}

// engineRow maps one aggregated obs.Snapshot counter onto a
// Prometheus sample under the sxnmd_engine_ prefix.
type engineRow struct {
	name string
	help string
	val  func(*obs.Snapshot) float64
}

var engineRows = []engineRow{
	{"sxnmd_engine_window_pairs_total", "Window pair slots visited across all jobs.", func(s *obs.Snapshot) float64 { return float64(s.WindowPairs) }},
	{"sxnmd_engine_comparisons_total", "Distinct similarity computations across all jobs.", func(s *obs.Snapshot) float64 { return float64(s.Comparisons) }},
	{"sxnmd_engine_duplicate_pairs_total", "Pairs classified duplicate across all jobs.", func(s *obs.Snapshot) float64 { return float64(s.DuplicatePairs) }},
	{"sxnmd_engine_sim_cache_hits_total", "Similarity results served from the shared memo layer.", func(s *obs.Snapshot) float64 { return float64(s.SimCacheHits) }},
	{"sxnmd_engine_sim_cache_misses_total", "Similarity results computed and memoized.", func(s *obs.Snapshot) float64 { return float64(s.SimCacheMisses) }},
	{"sxnmd_engine_gk_rows_total", "GK rows generated across all jobs.", func(s *obs.Snapshot) float64 { return float64(s.GKRows) }},
	{"sxnmd_engine_checkpoint_writes_total", "Checkpoint section writes across all jobs.", func(s *obs.Snapshot) float64 { return float64(s.CheckpointWrites) }},
	{"sxnmd_engine_checkpoint_bytes_total", "Bytes written to job checkpoints.", func(s *obs.Snapshot) float64 { return float64(s.CheckpointBytes) }},
	{"sxnmd_engine_spill_runs_total", "External-sort run files written across all jobs.", func(s *obs.Snapshot) float64 { return float64(s.SpillRuns) }},
	{"sxnmd_engine_spill_bytes_written_total", "Run-file bytes written by the spill path across all jobs.", func(s *obs.Snapshot) float64 { return float64(s.SpillBytesWritten) }},
	{"sxnmd_engine_resumed_candidates_total", "Candidates adopted from checkpoints instead of re-detected.", func(s *obs.Snapshot) float64 { return float64(s.ResumedCandidates) }},
	{"sxnmd_engine_resumed_pairs_total", "Duplicate pairs seeded from checkpoints.", func(s *obs.Snapshot) float64 { return float64(s.ResumedPairs) }},
}

// WritePrometheus renders the daemon counters plus the aggregated
// engine counters in the Prometheus text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer, engine obs.Snapshot) error {
	for _, r := range srvRows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n",
			r.name, r.help, r.name, r.kind, r.name, r.val(m)); err != nil {
			return err
		}
	}
	for _, r := range engineRows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n",
			r.name, r.help, r.name, r.name, r.val(&engine)); err != nil {
			return err
		}
	}
	return nil
}

// engineAgg accumulates the engine counters of finished job runs so
// the /metrics aggregate is monotonic even as job records are evicted
// from memory.
type engineAgg struct {
	mu  sync.Mutex
	sum obs.Snapshot
}

// add folds one job's final counters into the aggregate. Only the
// monotonic counter fields are summed; gauges and rates are
// per-job and stay out of the aggregate.
func (a *engineAgg) add(s obs.Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	addSnapshot(&a.sum, s)
}

func (a *engineAgg) total(live ...obs.Snapshot) obs.Snapshot {
	a.mu.Lock()
	sum := a.sum
	a.mu.Unlock()
	for _, s := range live {
		addSnapshot(&sum, s)
	}
	return sum
}

func addSnapshot(dst *obs.Snapshot, s obs.Snapshot) {
	dst.WindowPairs += s.WindowPairs
	dst.Comparisons += s.Comparisons
	dst.FilteredOut += s.FilteredOut
	dst.DuplicatePairs += s.DuplicatePairs
	dst.ODSimCalls += s.ODSimCalls
	dst.DescSimCalls += s.DescSimCalls
	dst.SimCacheHits += s.SimCacheHits
	dst.SimCacheMisses += s.SimCacheMisses
	dst.SimCacheEvictions += s.SimCacheEvictions
	dst.DescSetsInterned += s.DescSetsInterned
	dst.GKRows += s.GKRows
	dst.PassesDone += s.PassesDone
	dst.CandidatesDone += s.CandidatesDone
	dst.CheckpointWrites += s.CheckpointWrites
	dst.CheckpointBytes += s.CheckpointBytes
	dst.SpillRuns += s.SpillRuns
	dst.SpillBytesWritten += s.SpillBytesWritten
	dst.SpillBytesRead += s.SpillBytesRead
	dst.ResumedCandidates += s.ResumedCandidates
	dst.ResumedPairs += s.ResumedPairs
}
