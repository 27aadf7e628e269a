package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	sxnm "repro"
)

// parseSSE splits a raw SSE stream into (id, event, data) frames.
type sseFrame struct {
	id    string
	event string
	data  string
}

func parseSSE(t *testing.T, raw string) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for _, line := range strings.Split(raw, "\n") {
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur != (sseFrame{}) {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		}
	}
	return frames
}

// lifecycleOf drops the high-rate checkpoint-progress events, leaving
// the lifecycle skeleton tests assert on.
func lifecycleOf(types []string) []string {
	var out []string
	for _, typ := range types {
		if typ != EventProgress {
			out = append(out, typ)
		}
	}
	return out
}

func eventTypes(frames []sseFrame) []string {
	types := make([]string, len(frames))
	for i, f := range frames {
		types[i] = f.event
	}
	return types
}

func jobEvents(t *testing.T, s *Server, id string) []JobEvent {
	t.Helper()
	f, err := os.Open(s.spool.journalPath(id))
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	defer f.Close()
	evs, perr := ParseJournal(f)
	if perr != nil {
		t.Fatalf("parsing journal: %v", perr)
	}
	return evs
}

// TestEventJournalLifecycle pins the happy-path timeline: a successful
// job's journal reads admitted → queued → attempt-start → finished,
// with owner, epoch, and strictly increasing sequence numbers.
func TestEventJournalLifecycle(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, testBody(t, nil))
	id, _ := body["id"].(string)
	waitTerminal(t, s, id)

	evs := jobEvents(t, s, id)
	var types []string
	var progress int
	for i, ev := range evs {
		types = append(types, ev.Type)
		if ev.Type == EventProgress {
			progress++
			if ev.Progress == nil {
				t.Errorf("event %d: progress event without a progress payload", i)
			}
		}
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d: seq %d", i, ev.Seq)
		}
		if ev.Job != id {
			t.Errorf("event %d: job %q, want %q", i, ev.Job, id)
		}
		if ev.Owner == "" || ev.Epoch != 1 {
			t.Errorf("event %d: owner %q epoch %d", i, ev.Owner, ev.Epoch)
		}
	}
	want := []string{EventAdmitted, EventQueued, EventAttempt, EventFinished}
	if got := lifecycleOf(types); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("timeline %v, want %v", got, want)
	}
	if progress == 0 {
		t.Error("no checkpoint-progress events journaled for a checkpointed run")
	}
	fin := evs[len(evs)-1]
	if fin.State != StateDone || fin.Attempt != 1 {
		t.Errorf("finished event: state %q attempt %d", fin.State, fin.Attempt)
	}
	if s.Met.JournalEvents.Load() < int64(len(evs)) {
		t.Errorf("JournalEvents = %d < %d events on disk", s.Met.JournalEvents.Load(), len(evs))
	}
}

// TestEventJournalRetryCause pins that a transient failure leaves a
// retry event carrying its cause, and the finished event counts every
// attempt.
func TestEventJournalRetryCause(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, func(c *Config) {
		c.Runner = func(ctx context.Context, det *sxnm.Detector, doc io.Reader, fsys sxnm.CheckpointFS, dir string) (*sxnm.Result, error) {
			if calls.Add(1) == 1 {
				return nil, errors.New("synthetic transient fault")
			}
			return defaultRunner(ctx, det, doc, fsys, dir)
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, testBody(t, nil))
	id, _ := body["id"].(string)
	waitTerminal(t, s, id)

	evs := jobEvents(t, s, id)
	var retries, attempts int
	for _, ev := range evs {
		switch ev.Type {
		case EventRetry:
			retries++
			if !strings.Contains(ev.Cause, "synthetic transient fault") {
				t.Errorf("retry cause %q", ev.Cause)
			}
		case EventAttempt:
			attempts++
		}
	}
	if retries != 1 || attempts != 2 {
		t.Fatalf("retries=%d attempts=%d, want 1 and 2", retries, attempts)
	}
	fin := evs[len(evs)-1]
	if fin.Type != EventFinished || fin.State != StateDone || fin.Attempt != 2 {
		t.Fatalf("finished event %+v", fin)
	}
}

// TestEventJournalDrainPark pins that draining with a job in flight
// journals a drain-park event — the timeline explains why the job
// stopped without finishing.
func TestEventJournalDrainPark(t *testing.T) {
	runner, release := blockingRunner()
	defer release()
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Runner = runner
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, testBody(t, nil))
	id, _ := body["id"].(string)
	waitFor(t, func() bool { return s.Met.RunningJobs.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)

	evs := jobEvents(t, s, id)
	last := evs[len(evs)-1]
	if last.Type != EventDrainPark || last.Cause != "drain" {
		t.Fatalf("last event after drain = %+v, want drain-park", last)
	}
}

func TestEventsSSEReplayFinishedJob(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, testBody(t, nil))
	id, _ := body["id"].(string)
	waitTerminal(t, s, id)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	// The stream must terminate on its own at the terminal event.
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	frames := parseSSE(t, string(raw))
	want := []string{EventAdmitted, EventQueued, EventAttempt, EventFinished}
	if got := lifecycleOf(eventTypes(frames)); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i, f := range frames {
		if f.id == "" || f.data == "" {
			t.Errorf("frame %d incomplete: %+v", i, f)
		}
		if !strings.Contains(f.data, `"schema":"`+JournalSchema+`"`) {
			t.Errorf("frame %d data lacks schema: %s", i, f.data)
		}
	}
	if frames[0].id != "1" {
		t.Errorf("first frame id %q, want 1", frames[0].id)
	}
}

func TestEventsSSELiveTail(t *testing.T) {
	runner, release := blockingRunner()
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Runner = runner
		c.EventPollInterval = 5 * time.Millisecond
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, testBody(t, nil))
	id, _ := body["id"].(string)
	waitFor(t, func() bool { return s.Met.RunningJobs.Load() == 1 })

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the live stream frame by frame. The first three events exist
	// before release; the finished event only streams after it.
	events := make(chan string, 32)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				events <- ev
			}
		}
	}()
	var got []string
	next := func() string {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream ended early after %v", got)
			}
			got = append(got, ev)
			return ev
		case <-time.After(10 * time.Second):
			t.Fatalf("no event within 10s; got %v", got)
			return ""
		}
	}
	for _, want := range []string{EventAdmitted, EventQueued, EventAttempt} {
		if ev := next(); ev != want {
			t.Fatalf("event %v, want %s (so far %v)", ev, want, got)
		}
	}

	// Nothing else is journaled while the job is parked.
	select {
	case ev := <-events:
		t.Fatalf("unexpected event %q while job parked", ev)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	// The released run streams its checkpoint progress live, then ends.
	for {
		if ev := next(); ev == EventFinished {
			break
		} else if ev != EventProgress {
			t.Fatalf("post-release event %q, want progress or finished", ev)
		}
	}
	// Terminal event closes the stream server-side.
	if ev, ok := <-events; ok {
		t.Fatalf("stream still open after terminal event; got %q", ev)
	}
}

func TestEventsSSELastEventIDResume(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, testBody(t, nil))
	id, _ := body["id"].(string)
	waitTerminal(t, s, id)

	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	frames := parseSSE(t, string(raw))
	want := []string{EventAttempt, EventFinished}
	if got := lifecycleOf(eventTypes(frames)); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("resumed replay %v, want %v (events ≤2 must be filtered)", got, want)
	}
	if frames[0].id != "3" {
		t.Errorf("first resumed id %q, want 3", frames[0].id)
	}
}

func TestEventsJournalDisabled(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.DisableJournal = true })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, testBody(t, nil))
	id, _ := body["id"].(string)
	waitTerminal(t, s, id)

	// No journal file was written…
	if _, err := os.Stat(s.spool.journalPath(id)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("journal file exists with journaling disabled (stat err %v)", err)
	}
	// …and the stream endpoint refuses with the typed code.
	resp, b := getJSON(t, ts.URL+"/v1/jobs/"+id+"/events")
	if resp.StatusCode != http.StatusConflict || errCode(t, b) != "journal-disabled" {
		t.Fatalf("got %d %v, want 409 journal-disabled", resp.StatusCode, b)
	}
}

func TestEventsUnknownJob(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, b := getJSON(t, ts.URL+"/v1/jobs/nope/events")
	if resp.StatusCode != http.StatusNotFound || errCode(t, b) != "unknown-job" {
		t.Fatalf("got %d %v", resp.StatusCode, b)
	}
}

func TestFleetEndpoint(t *testing.T) {
	runner, release := blockingRunner()
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Runner = runner
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, testBody(t, nil))
	id, _ := body["id"].(string)
	waitFor(t, func() bool { return s.Met.RunningJobs.Load() == 1 })

	var st FleetStatus
	getTyped := func() {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/fleet")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet status %d", resp.StatusCode)
		}
		st = FleetStatus{}
		if err := jsonDecode(resp.Body, &st); err != nil {
			t.Fatal(err)
		}
	}

	getTyped()
	if st.Daemon.Owner != s.owner || st.Daemon.RunningJobs != 1 {
		t.Fatalf("daemon section %+v", st.Daemon)
	}
	if st.Jobs.Total != 1 || st.Jobs.Unfinished != 1 {
		t.Fatalf("job totals %+v", st.Jobs)
	}
	if len(st.Owners) != 1 {
		t.Fatalf("owners %+v", st.Owners)
	}
	o := st.Owners[0]
	if o.Owner != s.owner || !o.Self || o.Jobs != 1 || o.MaxEpoch != 1 || !o.Live {
		t.Fatalf("self owner row %+v", o)
	}

	release()
	waitTerminal(t, s, id)
	getTyped()
	if st.Jobs.Terminal != 1 || st.Jobs.Unfinished != 0 {
		t.Fatalf("post-finish totals %+v", st.Jobs)
	}
	if st.Daemon.JournalEvents == 0 {
		t.Error("daemon section reports zero journal events after a run")
	}
}

// TestDaemonMetricsLint runs a real job and then holds the daemon's
// whole /metrics exposition — counters, engine aggregate, and the four
// histogram families — to the Prometheus text-format linter.
func TestDaemonMetricsLint(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, testBody(t, nil))
	id, _ := body["id"].(string)
	waitTerminal(t, s, id)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := sxnm.LintPrometheus(raw); err != nil {
		t.Fatalf("daemon exposition does not lint: %v", err)
	}
	text := string(raw)
	for _, want := range []string{
		"sxnmd_journal_events_total",
		`sxnmd_queue_wait_seconds_bucket{le="+Inf"} 1`,
		`sxnmd_attempt_duration_seconds_count 1`,
		`sxnmd_job_duration_seconds_count 1`,
		"sxnmd_engine_phase_duration_seconds_bucket{phase=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}
