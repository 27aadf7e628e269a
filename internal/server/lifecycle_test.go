package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	sxnm "repro"
	"repro/internal/checkpoint"
)

// Spool lifecycle coverage: TTL garbage collection, quarantine of
// corrupt entries, the disk-pressure admission gate, per-tenant rate
// limits, cancel-during-backoff, and Retry-After jitter bounds.

// GC must collect terminal jobs once their outcome is older than
// GCTTL — after which their id answers 404 — and must NEVER touch a
// job that is still active, no matter how long it runs.
func TestGCCollectsTerminalSparesActive(t *testing.T) {
	const gcTTL = 80 * time.Millisecond
	var calls atomic.Int64
	gate := make(chan struct{})
	runner := func(ctx context.Context, det *sxnm.Detector, doc io.Reader, fsys sxnm.CheckpointFS, dir string) (*sxnm.Result, error) {
		if calls.Add(1) == 1 {
			return defaultRunner(ctx, det, doc, fsys, dir)
		}
		select {
		case <-gate:
			return defaultRunner(ctx, det, doc, fsys, dir)
		case <-ctx.Done():
			return nil, sxnm.ErrCanceled
		}
	}
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.GCTTL = gcTTL
		c.ReapInterval = 10 * time.Millisecond
		c.Runner = runner
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	jt, apiErr := s.Submit(mustRequest(t, nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	waitTerminal(t, s, jt.id)

	ja, apiErr := s.Submit(mustRequest(t, func(r *JobRequest) { r.Tenant = "other" }))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	waitFor(t, func() bool { return s.Met.RunningJobs.Load() == 1 })

	// Outlive several GC windows while ja is still running.
	waitFor(t, func() bool { return s.Met.JobsGCed.Load() >= 1 })
	time.Sleep(3 * gcTTL)

	// The terminal job is gone: memory, spool, and the API agree.
	if s.Job(jt.id) != nil {
		t.Error("GC'd job still registered in memory")
	}
	if _, err := os.Stat(s.spool.jobDir(jt.id)); !errors.Is(err, os.ErrNotExist) {
		t.Error("GC'd job's spool directory survived")
	}
	resp, body := getJSON(t, ts.URL+"/v1/jobs/"+jt.id)
	if resp.StatusCode != http.StatusNotFound || errCode(t, body) != "unknown-job" {
		t.Errorf("GC'd job answered %d %v, want 404 unknown-job", resp.StatusCode, body)
	}

	// The active job was never collected, and still finishes correctly.
	if s.Job(ja.id) == nil {
		t.Fatal("active job vanished during GC sweeps")
	}
	if _, err := os.Stat(s.spool.jobDir(ja.id)); err != nil {
		t.Fatalf("active job's spool directory: %v", err)
	}
	close(gate)
	rec := waitTerminal(t, s, ja.id)
	rec.mu.Lock()
	st := rec.state
	rec.mu.Unlock()
	if st != StateDone {
		t.Fatalf("active job finished as %s", st)
	}
	if got, want := clustersBytes(t, s, ja.id), referenceClusters(t); !bytes.Equal(got, want) {
		t.Error("job that survived GC sweeps produced different clusters")
	}
}

// Corrupt spool entries — an undecodable job.json, an outcome.json of
// torn bytes — must be moved into .quarantine with a typed reason; the
// daemon keeps serving.
func TestCorruptSpoolEntriesQuarantined(t *testing.T) {
	spoolDir := t.TempDir()
	sp, err := newSpool(spoolDir, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Entry 1: garbage job.json.
	if err := sp.fsys.MkdirAll(sp.jobDir("j-badjob")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sp.jobDir("j-badjob"), spoolJobFile), []byte(`{"id":"j-bad`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Entry 2: valid job.json, torn outcome.json.
	jb := &job{id: "j-badout", req: mustRequest(t, nil), submitted: time.Now().UTC()}
	if err := sp.admit(jb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sp.jobDir("j-badout"), spoolOutcomeFile), []byte(`{"state":"do`), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, func(c *Config) { c.SpoolDir = spoolDir })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if got := s.Met.JobsQuarantined.Load(); got != 2 {
		t.Fatalf("JobsQuarantined = %d, want 2", got)
	}
	for _, id := range []string{"j-badjob", "j-badout"} {
		if _, err := os.Stat(filepath.Join(spoolDir, id)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("corrupt entry %s still in the spool", id)
		}
		resp, _ := getJSON(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("quarantined %s answers %d, want 404", id, resp.StatusCode)
		}
	}
	qents, err := os.ReadDir(filepath.Join(spoolDir, spoolQuarantineDir))
	if err != nil || len(qents) != 2 {
		t.Fatalf("quarantine holds %d entries (%v), want 2", len(qents), err)
	}
	// Each quarantined entry records its typed reason.
	for _, ent := range qents {
		raw, err := os.ReadFile(filepath.Join(spoolDir, spoolQuarantineDir, ent.Name(), quarantineFile))
		if err != nil {
			t.Errorf("quarantine entry %s lacks a readable %s: %v", ent.Name(), quarantineFile, err)
			continue
		}
		if !bytes.Contains(raw, []byte("corrupt")) {
			t.Errorf("quarantine reason for %s does not name the corruption: %s", ent.Name(), raw)
		}
	}

	// The daemon is alive and well: a fresh job still runs to done.
	j, apiErr := s.Submit(mustRequest(t, nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	rec := waitTerminal(t, s, j.id)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.state != StateDone {
		t.Fatalf("post-quarantine job finished as %s", rec.state)
	}
}

// enospcFS delegates to the real filesystem but, while armed, fails
// every temp-file creation with ENOSPC — a full disk as admission
// sees it.
type enospcFS struct {
	checkpoint.FS
	armed *atomic.Bool
}

func (f enospcFS) CreateTemp(dir, pattern string) (checkpoint.File, error) {
	if f.armed.Load() {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: syscall.ENOSPC}
	}
	return f.FS.CreateTemp(dir, pattern)
}

// A spool write failing with ENOSPC must flip admission to 507
// spool-disk-full with Retry-After; the gate reopens only after the
// reaper's durable write probe succeeds again.
func TestDiskPressureFromENOSPC(t *testing.T) {
	var armed atomic.Bool
	s := newTestServer(t, func(c *Config) {
		c.CheckpointFS = enospcFS{FS: checkpoint.OSFS(), armed: &armed}
		c.ReapInterval = 10 * time.Millisecond
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Healthy disk: a job goes through end to end.
	resp, _ := postJob(t, ts, testBody(t, nil))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy submit: %d", resp.StatusCode)
	}

	armed.Store(true)
	resp, body := postJob(t, ts, testBody(t, nil))
	if resp.StatusCode != http.StatusInsufficientStorage || errCode(t, body) != "spool-disk-full" {
		t.Fatalf("ENOSPC submit: %d %v, want 507 spool-disk-full", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("507 lacks Retry-After")
	}
	if s.Met.DiskPressure.Load() != 1 {
		t.Error("ENOSPC did not raise the disk-pressure gauge")
	}
	// The gate now rejects before touching the disk at all.
	resp, body = postJob(t, ts, testBody(t, nil))
	if resp.StatusCode != http.StatusInsufficientStorage || errCode(t, body) != "spool-disk-full" {
		t.Fatalf("gated submit: %d %v", resp.StatusCode, body)
	}
	if got := s.Met.RejectsDisk.Load(); got < 2 {
		t.Errorf("RejectsDisk = %d, want ≥ 2", got)
	}

	// Space returns; the reaper's probe write reopens admission.
	armed.Store(false)
	waitFor(t, func() bool { return s.Met.DiskPressure.Load() == 0 })
	resp, body = postJob(t, ts, testBody(t, nil))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d %v", resp.StatusCode, body)
	}
}

// The statfs threshold path: free space below MinFreeBytes closes
// admission, recovery reopens it.
func TestDiskPressureFromFreeBytesThreshold(t *testing.T) {
	var free atomic.Uint64
	free.Store(1 << 30)
	s := newTestServer(t, func(c *Config) {
		c.MinFreeBytes = 1 << 20
		c.FreeBytes = func(string) (uint64, error) { return free.Load(), nil }
		c.ReapInterval = 10 * time.Millisecond
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	free.Store(1 << 10)
	waitFor(t, func() bool { return s.Met.DiskPressure.Load() == 1 })
	resp, body := postJob(t, ts, testBody(t, nil))
	if resp.StatusCode != http.StatusInsufficientStorage || errCode(t, body) != "spool-disk-full" {
		t.Fatalf("low-disk submit: %d %v", resp.StatusCode, body)
	}

	free.Store(1 << 30)
	waitFor(t, func() bool { return s.Met.DiskPressure.Load() == 0 })
	if resp, body := postJob(t, ts, testBody(t, nil)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d %v", resp.StatusCode, body)
	}
}

// Per-tenant token bucket: a tenant burning its burst gets 429
// tenant-rate-limited with Retry-After; other tenants are unaffected.
func TestTenantRateLimit(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.TenantRPS = 0.5
		c.TenantBurst = 2
		c.QueueCap = 100
		c.PerTenantJobs = 100
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if resp, b := postJob(t, ts, testBody(t, nil)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: %d %v", i, resp.StatusCode, b)
		}
	}
	resp, body := postJob(t, ts, testBody(t, nil))
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, body) != "tenant-rate-limited" {
		t.Fatalf("over-rate submit: %d %v, want 429 tenant-rate-limited", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limit 429 lacks Retry-After")
	}
	if s.Met.RejectsRate.Load() != 1 {
		t.Errorf("RejectsRate = %d", s.Met.RejectsRate.Load())
	}
	// Another tenant's bucket is untouched.
	if resp, b := postJob(t, ts, testBody(t, func(m map[string]any) { m["tenant"] = "other" })); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: %d %v", resp.StatusCode, b)
	}
}

// Token-bucket unit behavior under an injected clock: refill at rps,
// cap at burst, exact retry hints, idle-bucket pruning.
func TestRateLimiterRefillAndPrune(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	l := newRateLimiter(10, 1, clock)

	if ok, _ := l.allow("t"); !ok {
		t.Fatal("first token denied")
	}
	ok, wait := l.allow("t")
	if ok {
		t.Fatal("empty bucket allowed")
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 100ms]", wait)
	}
	now = now.Add(100 * time.Millisecond)
	if ok, _ := l.allow("t"); !ok {
		t.Fatal("refilled token denied")
	}

	// Idle full buckets are pruned; active ones stay.
	now = now.Add(time.Hour)
	l.prune(10 * time.Minute)
	if l.len() != 0 {
		t.Fatalf("idle buckets not pruned: %d", l.len())
	}

	if l := newRateLimiter(0, 0, clock); l != nil {
		t.Fatal("rps=0 should disable the limiter")
	}
	var nilL *rateLimiter
	if ok, _ := nilL.allow("t"); !ok {
		t.Fatal("nil limiter must allow everything")
	}
}

// Satellite: a DELETE racing a retry backoff must take effect
// immediately — the backoff sleep is a cancellation point, not a
// blackout. The backoff here is 30s+; the test passes only if cancel
// cuts it short.
func TestCancelDuringRetryBackoff(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.MaxAttempts = 5
		c.RetryBaseDelay = 30 * time.Second
		c.RetryMaxDelay = 60 * time.Second
		c.Runner = func(context.Context, *sxnm.Detector, io.Reader, sxnm.CheckpointFS, string) (*sxnm.Result, error) {
			return nil, fmt.Errorf("injected transient fault")
		}
	})
	j, apiErr := s.Submit(mustRequest(t, nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	// The first attempt fails instantly; wait until the job is inside
	// its 30-second backoff sleep.
	waitFor(t, func() bool { return s.Met.Retries.Load() >= 1 })

	start := time.Now()
	if _, changed := s.Cancel(j.id); !changed {
		t.Fatal("cancel changed nothing")
	}
	rec := waitTerminal(t, s, j.id)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel during backoff took %v; the sleep is not honoring cancellation", elapsed)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.state != StateCanceled {
		t.Fatalf("state = %s, want canceled", rec.state)
	}
}

// Satellite: Retry-After jitter is bounded — never below the true
// wait, never more than ~25%+1s above it — and actually varies.
func TestRetryAfterJitterBounds(t *testing.T) {
	for _, d := range []time.Duration{500 * time.Millisecond, 5 * time.Second, time.Minute} {
		base := int(d / time.Second)
		if base < 1 {
			base = 1
		}
		seen := make(map[int]bool)
		for i := 0; i < 400; i++ {
			got := retryAfterSeconds(d)
			if got < base || got > base+base/4+1 {
				t.Fatalf("retryAfterSeconds(%v) = %d, want [%d, %d]", d, got, base, base+base/4+1)
			}
			seen[got] = true
		}
		if len(seen) < 2 {
			t.Errorf("retryAfterSeconds(%v) never jittered across 400 draws", d)
		}
	}
}

// A crash between MkdirAll and the job.json write leaves a dir the
// scan skips; the sweep ages it out after 10×LeaseTTL.
func TestAdmissionDebrisAgedOut(t *testing.T) {
	spoolDir := t.TempDir()
	debris := filepath.Join(spoolDir, "j-debris")
	if err := os.MkdirAll(debris, 0o755); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(debris, old, old); err != nil {
		t.Fatal(err)
	}
	newTestServer(t, func(c *Config) {
		c.SpoolDir = spoolDir
		c.LeaseTTL = 100 * time.Millisecond
	})
	if _, err := os.Stat(debris); !errors.Is(err, os.ErrNotExist) {
		t.Error("admission debris survived the startup sweep")
	}
}
