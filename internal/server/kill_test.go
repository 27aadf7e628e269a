package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	sxnm "repro"
	"repro/internal/checkpoint"
	"repro/internal/checkpoint/faultfs"
)

// The daemon acceptance harness: kill the daemon at EVERY durable I/O
// step of a job's run, restart it over the same spool, and require one
// of exactly two outcomes — the restarted daemon completes the job
// with clusters byte-identical to an uninterrupted run, or fails it
// with a typed error. Silent corruption and wrong answers are the
// outlawed third outcome.
//
// The "kill" is simulated at the same fidelity as the checkpoint
// layer's own crash suite: a faultfs that fails the n-th filesystem
// operation (optionally tearing the in-flight write) and everything
// after it, which is what a SIGKILL looks like to the checkpoint
// directory. The crashed attempt runs the exact engine call a worker
// makes (defaultRunner); the job is spooled first, as admission would
// have done, and outcome.json is never written — a killed process
// cannot write one — so recovery sees an unfinished job.

func killFixture(t *testing.T) *sxnm.Detector {
	t.Helper()
	cfg, err := sxnm.LoadConfig(strings.NewReader(testConfigXML))
	if err != nil {
		t.Fatal(err)
	}
	det, err := sxnm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestDaemonKilledAtEveryStep(t *testing.T) {
	det := killFixture(t)
	doc := func() io.Reader { return strings.NewReader(testDocXML) }

	// Reference: an uninterrupted checkpointed run.
	ref, err := det.RunCheckpointed(doc(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(clustersOf(ref))
	if err != nil {
		t.Fatal(err)
	}

	// Learn how many filesystem steps one full run performs.
	counter := faultfs.New(checkpoint.OSFS())
	if _, err := det.RunCheckpointedFSContext(context.Background(), doc(), counter, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	steps := counter.Steps()
	if steps < 10 {
		t.Fatalf("suspiciously few steps (%d); harness is not exercising the checkpoint path", steps)
	}

	for _, torn := range []bool{false, true} {
		for n := 1; n <= steps; n++ {
			spoolDir := t.TempDir()
			sp, err := newSpool(spoolDir, nil)
			if err != nil {
				t.Fatal(err)
			}
			const id = "j-kill"
			j := &job{
				id:        id,
				req:       &JobRequest{Tenant: "default", ConfigXML: testConfigXML, DocumentXML: testDocXML},
				submitted: time.Now().UTC(),
			}
			if err := sp.admit(j); err != nil {
				t.Fatal(err)
			}

			// Generation 1 runs the job and dies at step n.
			fsys := faultfs.New(checkpoint.OSFS())
			fsys.CrashAt(n, torn)
			_, runErr := defaultRunner(context.Background(), det, doc(), fsys, sp.checkpointDir(id))
			if runErr == nil && !fsys.Crashed() {
				t.Fatalf("crash point %d (torn=%v) never fired within %d steps", n, torn, steps)
			}

			// Generation 2: a fresh daemon over the spool the "killed"
			// process left behind.
			srv, err := New(Config{
				SpoolDir:       spoolDir,
				Workers:        1,
				RetryBaseDelay: time.Millisecond,
			})
			if err != nil {
				t.Fatalf("crash at %d (torn=%v): restart: %v", n, torn, err)
			}
			if got := srv.Met.JobsResumed.Load(); got != 1 {
				t.Fatalf("crash at %d (torn=%v): JobsResumed = %d, want 1", n, torn, got)
			}
			rec := waitTerminal(t, srv, id)
			rec.mu.Lock()
			st, code, msg := rec.state, rec.errCode, rec.errMsg
			rec.mu.Unlock()
			switch st {
			case StateDone:
				out, err := srv.spool.loadOutcome(id)
				if err != nil || out == nil {
					t.Fatalf("crash at %d (torn=%v): outcome unreadable: %v", n, torn, err)
				}
				got, _ := json.Marshal(out.Clusters)
				if !bytes.Equal(got, want) {
					t.Errorf("crash at %d (torn=%v): resumed clusters differ\nwant %s\ngot  %s",
						n, torn, want, got)
				}
			case StateFailed:
				if code == "" {
					t.Errorf("crash at %d (torn=%v): failed without a typed code: %s", n, torn, msg)
				}
			default:
				t.Errorf("crash at %d (torn=%v): terminal state %s", n, torn, st)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			srv.Drain(ctx)
			cancel()
		}
	}
}

// A spooled job whose checkpoint belongs to a DIFFERENT document (an
// operator restored the wrong directory, or the spool was tampered
// with) must fail fast with the typed mismatch code — never retry,
// never silently mix state.
func TestRestartChecksCheckpointIdentity(t *testing.T) {
	det := killFixture(t)
	otherDoc := `<movie_database><movies>` +
		`<movie year="2001"><title>Amelie</title><people><person>Audrey Tautou</person></people></movie>` +
		`</movies></movie_database>`

	spoolDir := t.TempDir()
	sp, err := newSpool(spoolDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	const id = "j-mismatch"
	j := &job{
		id:        id,
		req:       &JobRequest{Tenant: "default", ConfigXML: testConfigXML, DocumentXML: testDocXML},
		submitted: time.Now().UTC(),
	}
	if err := sp.admit(j); err != nil {
		t.Fatal(err)
	}
	// Plant a finished checkpoint of the wrong document in the job's
	// checkpoint directory.
	if _, err := det.RunCheckpointed(strings.NewReader(otherDoc), sp.checkpointDir(id)); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{SpoolDir: spoolDir, Workers: 1, RetryBaseDelay: time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	rec := waitTerminal(t, srv, id)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.state != StateFailed || rec.errCode != "checkpoint-mismatch" {
		t.Fatalf("state = %s code %q, want failed/checkpoint-mismatch", rec.state, rec.errCode)
	}
	if rec.attempts != 1 {
		t.Errorf("mismatch was retried: attempts = %d", rec.attempts)
	}
}
