package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	sxnm "repro"
)

// The drain differential: a daemon drained mid-run and restarted over
// the same spool must finish every job — queued and in-flight alike —
// with clusters byte-identical to a daemon that was never interrupted.

// clustersBytes returns the canonical serialization of a finished
// job's clusters.
func clustersBytes(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	out, err := s.spool.loadOutcome(id)
	if err != nil || out == nil {
		t.Fatalf("job %s: outcome missing (%v)", id, err)
	}
	if out.State != StateDone {
		t.Fatalf("job %s: state %s, error %+v", id, out.State, out.Error)
	}
	data, err := json.Marshal(out.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// referenceClusters runs one job to completion on an uninterrupted
// daemon (spill path on, like the drained ones) and returns its
// canonical clusters.
func referenceClusters(t *testing.T) []byte {
	t.Helper()
	s := newTestServer(t, func(c *Config) {
		c.Engine.SpillThresholdRows = 1
	})
	j, apiErr := s.Submit(mustRequest(t, nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	waitTerminal(t, s, j.id)
	return clustersBytes(t, s, j.id)
}

// assertNoRunFiles fails if a job's spill directory holds any .run
// file: each key pass removes its own runs, so none outlives a
// daemon-level interruption either.
func assertNoRunFiles(t *testing.T, s *Server, id string) {
	t.Helper()
	runs, err := filepath.Glob(filepath.Join(s.spool.spillDir(id), "*.run"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		t.Errorf("job %s: run file %s left behind", id, filepath.Base(r))
	}
}

func TestDrainRestartDifferential(t *testing.T) {
	want := referenceClusters(t)
	spoolDir := t.TempDir()

	// Generation 1: one worker, so jobA runs and jobB stays queued.
	// jobA's runner parks until drain interrupts it, the way a long
	// engine run would be interrupted at its next cooperative poll.
	started := make(chan struct{})
	gen1, err := New(Config{
		SpoolDir: spoolDir,
		Workers:  1,
		Engine:   sxnm.Options{SpillThresholdRows: 1},
		Runner: func(ctx context.Context, det *sxnm.Detector, doc io.Reader, fsys sxnm.CheckpointFS, dir string) (*sxnm.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, sxnm.ErrCanceled
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobA, apiErr := gen1.Submit(mustRequest(t, nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	<-started
	jobB, apiErr := gen1.Submit(mustRequest(t, func(r *JobRequest) { r.Tenant = "second" }))
	if apiErr != nil {
		t.Fatal(apiErr)
	}

	ts := httptest.NewServer(gen1.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gen1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Drained daemon: not ready, rejects submissions with a typed 503.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	if _, apiErr := gen1.Submit(mustRequest(t, nil)); apiErr == nil || apiErr.Code != "draining" {
		t.Errorf("submit while draining: %+v, want code draining", apiErr)
	}

	// The interrupted job went back to queued — durably: no outcome —
	// and still left its partial run report behind (satellite:
	// observability outputs on drain).
	jobA.mu.Lock()
	stA := jobA.state
	jobA.mu.Unlock()
	if stA != StateQueued {
		t.Fatalf("in-flight job after drain = %s, want queued", stA)
	}
	if gen1.Met.JobsRequeued.Load() != 1 {
		t.Errorf("JobsRequeued = %d, want 1", gen1.Met.JobsRequeued.Load())
	}
	for _, id := range []string{jobA.id, jobB.id} {
		if out, err := gen1.spool.loadOutcome(id); err != nil || out != nil {
			t.Errorf("drained job %s has an outcome (%+v, %v); must stay resumable", id, out, err)
		}
	}
	if _, err := os.Stat(filepath.Join(gen1.spool.jobDir(jobA.id), spoolReportFile)); err != nil {
		t.Errorf("drained in-flight job left no report.json: %v", err)
	}

	// Generation 2 over the same spool: both jobs resume and complete.
	gen2, err := New(Config{
		SpoolDir:       spoolDir,
		Workers:        2,
		Engine:         sxnm.Options{SpillThresholdRows: 1},
		RetryBaseDelay: time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gen2.Drain(ctx)
	}()
	if got := gen2.Met.JobsResumed.Load(); got != 2 {
		t.Fatalf("JobsResumed = %d, want 2", got)
	}
	for _, id := range []string{jobA.id, jobB.id} {
		j := waitTerminal(t, gen2, id)
		j.mu.Lock()
		st, resumed := j.state, j.resumed
		j.mu.Unlock()
		if st != StateDone {
			t.Fatalf("resumed job %s = %s (err %s)", id, st, j.errMsg)
		}
		if !resumed {
			t.Errorf("job %s not flagged resumed", id)
		}
		if got := clustersBytes(t, gen2, id); !bytes.Equal(got, want) {
			t.Errorf("job %s: resumed clusters differ from uninterrupted run\nwant %s\ngot  %s", id, want, got)
		}
		assertNoRunFiles(t, gen2, id)
	}
}

// A finished job's record survives a restart: the next generation
// serves its status and clusters from the spooled outcome.
func TestFinishedJobsSurviveRestart(t *testing.T) {
	spoolDir := t.TempDir()
	gen1, err := New(Config{SpoolDir: spoolDir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	j, apiErr := gen1.Submit(mustRequest(t, nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	waitTerminal(t, gen1, j.id)
	want := clustersBytes(t, gen1, j.id)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gen1.Drain(ctx)

	gen2, err := New(Config{SpoolDir: spoolDir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer gen2.Drain(ctx)
	if got := gen2.Met.JobsResumed.Load(); got != 0 {
		t.Errorf("finished job was re-enqueued: JobsResumed = %d", got)
	}
	ts := httptest.NewServer(gen2.Handler())
	defer ts.Close()
	resp, body := getJSON(t, ts.URL+"/v1/jobs/"+j.id)
	if resp.StatusCode != http.StatusOK || body["state"] != "done" {
		t.Fatalf("restarted status = %d %v", resp.StatusCode, body)
	}
	if got := clustersBytes(t, gen2, j.id); !bytes.Equal(got, want) {
		t.Error("restarted generation serves different clusters")
	}
}
