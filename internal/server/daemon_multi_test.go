package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	sxnm "repro"
	"repro/internal/checkpoint"
	"repro/internal/checkpoint/faultfs"
)

// The multi-daemon acceptance harness. Two daemons share one spool:
// daemon A is "killed" (its heartbeats stop, its writes fail), daemon
// B's reaper must take its jobs over and finish them byte-identically
// to an uninterrupted run, and A — should it come back from the dead —
// must fence itself instead of writing.

// TestTwoDaemonTakeoverDifferential is the live form: A holds one
// running job (parked in a gated runner) and one queued job, then goes
// silent. B adopts both, finishes both identically to the reference.
// A's gate is then released so its zombie attempt completes compute —
// and must be fenced: outcome.json stays exactly B's bytes.
func TestTwoDaemonTakeoverDifferential(t *testing.T) {
	want := referenceClusters(t)
	spoolDir := t.TempDir()
	const ttl = 300 * time.Millisecond

	// Daemon A: one worker, its running job parked at a gate. The gated
	// runner computes in a throwaway directory, NOT the job's spooled
	// checkpoint dir, so after fencing we can assert A added zero bytes
	// to the shared spool.
	gate := make(chan struct{})
	var scratch atomic.Int64
	scratchRoot := t.TempDir()
	aRunner := func(ctx context.Context, det *sxnm.Detector, doc io.Reader, fsys sxnm.CheckpointFS, dir string) (*sxnm.Result, error) {
		select {
		case <-gate:
			n := scratch.Add(1)
			return defaultRunner(ctx, det, doc, sxnm.OSCheckpointFS(), scratchRoot+"/"+strconv.FormatInt(n, 10))
		case <-ctx.Done():
			return nil, sxnm.ErrCanceled
		}
	}
	a := newTestServer(t, func(c *Config) {
		c.SpoolDir = spoolDir
		c.OwnerID = "daemon-a"
		c.Workers = 1
		c.LeaseTTL = ttl
		c.ReapInterval = time.Hour // A never reaps in this test
		c.Runner = aRunner
	})

	j1, apiErr := a.Submit(mustRequest(t, nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	j2, apiErr := a.Submit(mustRequest(t, func(r *JobRequest) { r.Tenant = "other" }))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	waitFor(t, func() bool { return a.Met.RunningJobs.Load() == 1 })

	// "Kill" A: stop its heartbeat and reaper. The worker goroutine
	// stays parked at the gate — a stalled process, exactly the failure
	// the lease TTL exists for.
	a.cancelBg()

	// Daemon B arrives, finds two unfinished jobs whose leases go
	// silent, and takes them over.
	b := newTestServer(t, func(c *Config) {
		c.SpoolDir = spoolDir
		c.OwnerID = "daemon-b"
		c.Workers = 2
		c.LeaseTTL = ttl
		c.ReapInterval = 25 * time.Millisecond
	})
	for _, id := range []string{j1.id, j2.id} {
		waitFor(t, func() bool { return b.Job(id) != nil })
		rec := waitTerminal(t, b, id)
		rec.mu.Lock()
		st := rec.state
		rec.mu.Unlock()
		if st != StateDone {
			t.Fatalf("job %s on daemon B: state %s", id, st)
		}
		if got := clustersBytes(t, b, id); !bytes.Equal(got, want) {
			t.Errorf("job %s: takeover clusters differ from reference\nwant %s\ngot  %s", id, want, got)
		}
	}
	if got := b.Met.LeaseTakeovers.Load(); got != 2 {
		t.Errorf("daemon B LeaseTakeovers = %d, want 2", got)
	}
	if got := b.Met.JobsResumed.Load(); got != 2 {
		t.Errorf("daemon B JobsResumed = %d, want 2", got)
	}

	// The journal travels with the job: j1's single file must hold the
	// full cross-daemon timeline — A's attempt, the takeover with the
	// epoch bump and ownership chain, A's fencing, and B's finish.
	evs := jobEvents(t, b, j1.id)
	var sawAttemptA, sawAttemptB bool
	var takeover, fenced, finished *JobEvent
	for i := range evs {
		ev := &evs[i]
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Errorf("journal seqs not increasing: %d then %d", evs[i-1].Seq, ev.Seq)
		}
		switch {
		case ev.Type == EventAttempt && ev.Owner == "daemon-a":
			sawAttemptA = true
			if ev.Epoch != 1 {
				t.Errorf("daemon A attempt at epoch %d, want 1", ev.Epoch)
			}
		case ev.Type == EventAttempt && ev.Owner == "daemon-b":
			sawAttemptB = true
			if ev.Epoch != 2 {
				t.Errorf("daemon B attempt at epoch %d, want 2", ev.Epoch)
			}
		case ev.Type == EventTakeover:
			takeover = ev
		case ev.Type == EventFenced:
			fenced = ev
		case ev.Type == EventFinished:
			finished = ev
		}
	}
	if !sawAttemptA || !sawAttemptB {
		t.Errorf("journal missing an owner's attempt: daemon-a=%v daemon-b=%v", sawAttemptA, sawAttemptB)
	}
	if takeover == nil {
		t.Error("journal has no lease-takeover event")
	} else if takeover.Owner != "daemon-b" || takeover.Epoch != 2 ||
		takeover.PrevOwner != "daemon-a" || takeover.PrevEpoch != 1 {
		t.Errorf("takeover event %+v, want daemon-b epoch 2 from daemon-a epoch 1", takeover)
	}
	if fenced == nil {
		t.Error("journal has no fenced event for the displaced owner")
	} else if fenced.Owner != "daemon-a" || fenced.Epoch != 1 {
		t.Errorf("fenced event names %s@%d, want daemon-a@1", fenced.Owner, fenced.Epoch)
	}
	if finished == nil || finished.Owner != "daemon-b" || finished.State != StateDone {
		t.Errorf("finished event %+v, want daemon-b done", finished)
	}

	// B is done: snapshot the durable truth for j1.
	outPath := spoolDir + "/" + j1.id + "/" + spoolOutcomeFile
	outBefore, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}

	// Resurrect A's parked attempt. It finishes its compute, then must
	// observe the epoch bump and fence itself: local failed
	// "lease-fenced", zero spool writes.
	close(gate)
	rec := waitTerminal(t, a, j1.id)
	rec.mu.Lock()
	st, code := rec.state, rec.errCode
	rec.mu.Unlock()
	if st != StateFailed || code != "lease-fenced" {
		t.Fatalf("zombie daemon A finished j1 as %s/%q, want failed/lease-fenced", st, code)
	}
	waitFor(t, func() bool { return a.Met.LeasesFenced.Load() >= 1 })
	outAfter, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outBefore, outAfter) {
		t.Error("fenced daemon A mutated outcome.json")
	}
}

// TestTakeoverKilledAtEveryStep extends the kill-at-every-step
// invariant to the NEW durable surfaces: daemon A routes both spool
// and checkpoint I/O through one shared faultfs, so the injected crash
// hits admission writes, lease claims, heartbeats, checkpoint
// sections, and outcome/report writes alike — and everything after the
// crash point fails, exactly like a dead process. Daemon B (real
// filesystem) must then adopt whatever A durably left and reach a
// byte-identical result or a typed failure. Exhaustive over every step
// when DAEMON_MULTI_EXHAUSTIVE=1 (the `make daemon-multi` gate);
// strided otherwise to keep the tier-1 suite fast.
func TestTakeoverKilledAtEveryStep(t *testing.T) {
	want := referenceClusters(t)
	const ttl = 60 * time.Millisecond

	runGen := func(spoolDir string, fsys sxnm.CheckpointFS) (*Server, *job, error) {
		a, err := New(Config{
			SpoolDir:          spoolDir,
			OwnerID:           "daemon-a",
			Workers:           1,
			LeaseTTL:          ttl,
			HeartbeatInterval: time.Hour, // deterministic step count
			ReapInterval:      time.Hour,
			MaxAttempts:       2,
			RetryBaseDelay:    time.Millisecond,
			RetryMaxDelay:     2 * time.Millisecond,
			CheckpointFS:      fsys,
		})
		if err != nil {
			return nil, nil, err
		}
		j, apiErr := a.Submit(mustRequest(t, nil))
		if apiErr != nil {
			return a, nil, fmt.Errorf("%s", apiErr.Error())
		}
		return a, j, nil
	}

	// Learn the step count of one uninterrupted daemon-A lifecycle.
	counter := faultfs.New(checkpoint.OSFS())
	a, j, err := runGen(t.TempDir(), counter)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, a, j.id)
	drainSrv(t, a)
	steps := counter.Steps()
	if steps < 20 {
		t.Fatalf("suspiciously few steps (%d); the spool I/O seam is not being exercised", steps)
	}

	exhaustive := os.Getenv("DAEMON_MULTI_EXHAUSTIVE") == "1"
	testStep := func(n int) bool {
		if exhaustive {
			return true
		}
		// Always the first 25 (admission + lease claim + early
		// checkpoint I/O) and last 20 (outcome, report, metrics, lease
		// removal); every 5th in between.
		return n <= 25 || n > steps-20 || n%5 == 0
	}

	for _, torn := range []bool{false, true} {
		for n := 1; n <= steps; n++ {
			if !testStep(n) {
				continue
			}
			spoolDir := t.TempDir()
			fsys := faultfs.New(checkpoint.OSFS())
			fsys.CrashAt(n, torn)
			a, j, err := runGen(spoolDir, fsys)
			if err != nil {
				// The crash fired inside New or Submit; whatever debris
				// is on disk, daemon B below must cope with it.
				if a != nil {
					drainSrv(t, a)
				}
			} else {
				// A reaches a LOCAL terminal state (its writes fail, so
				// no durable outcome lands past the crash point).
				waitTerminal(t, a, j.id)
				drainSrv(t, a)
			}

			// Daemon B over the real filesystem adopts the wreckage.
			b, err := New(Config{
				SpoolDir:       spoolDir,
				OwnerID:        "daemon-b",
				Workers:        1,
				LeaseTTL:       ttl,
				ReapInterval:   15 * time.Millisecond,
				RetryBaseDelay: time.Millisecond,
				Logf: func(format string, args ...any) {
					t.Logf("crash@%d(torn=%v) B: "+format, append([]any{n, torn}, args...)...)
				},
			})
			if err != nil {
				t.Fatalf("crash at %d (torn=%v): daemon B failed to start: %v", n, torn, err)
			}
			sp, err := newSpool(spoolDir, nil)
			if err != nil {
				t.Fatal(err)
			}
			entries, err := sp.scan()
			if err != nil {
				t.Fatalf("crash at %d (torn=%v): scanning spool: %v", n, torn, err)
			}
			for _, ent := range entries {
				if ent.rec == nil {
					continue // corrupt entries are B's sweep's problem (quarantine)
				}
				id := ent.id
				waitFor(t, func() bool { return b.Job(id) != nil })
				rec := waitTerminal(t, b, id)
				rec.mu.Lock()
				st, code := rec.state, rec.errCode
				rec.mu.Unlock()
				switch st {
				case StateDone:
					out, oerr := sp.loadOutcome(id)
					if oerr != nil || out == nil {
						t.Fatalf("crash at %d (torn=%v): outcome unreadable: %v", n, torn, oerr)
					}
					got, _ := json.Marshal(out.Clusters)
					if !bytes.Equal(got, want) {
						t.Errorf("crash at %d (torn=%v): takeover clusters differ\nwant %s\ngot  %s", n, torn, want, got)
					}
				case StateFailed:
					if code == "" {
						t.Errorf("crash at %d (torn=%v): failed without a typed code", n, torn)
					}
				default:
					t.Errorf("crash at %d (torn=%v): terminal state %s", n, torn, st)
				}
				// Whatever the crash did to the journal, it reads back as
				// decodable events plus at most a typed torn/corrupt error —
				// and the decodable sequence stays strictly increasing.
				if raw, rerr := os.ReadFile(sp.journalPath(id)); rerr == nil {
					lines, _, serr := scanJournal(raw)
					if serr != nil && !errors.Is(serr, ErrJournalTorn) && !errors.Is(serr, ErrJournalCorrupt) {
						t.Errorf("crash at %d (torn=%v): untyped journal error: %v", n, torn, serr)
					}
					for i := 1; i < len(lines); i++ {
						if lines[i].Ev.Seq <= lines[i-1].Ev.Seq {
							t.Errorf("crash at %d (torn=%v): journal seqs not increasing", n, torn)
							break
						}
					}
				}
			}
			drainSrv(t, b)
		}
	}
}

func drainSrv(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
