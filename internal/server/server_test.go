package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	sxnm "repro"
)

// Shared fixture: the movie/person corpus of the checkpoint fault
// suite, expressed in the daemon's wire form (an XML config string
// plus an XML document string inside one JSON submission).

const testConfigXML = `
<sxnm-config window="4">
  <candidate name="movie" xpath="movie_database/movies/movie"
             rule="either" odThreshold="0.7" descThreshold="0.4">
    <path id="1" relPath="title/text()"/>
    <path id="2" relPath="@year"/>
    <od pid="1" relevance="0.8"/>
    <od pid="2" relevance="0.2" sim="year"/>
    <key name="title"><part pid="1" order="1" pattern="K1-K5"/></key>
    <key name="year">
      <part pid="2" order="1" pattern="D3,D4"/>
      <part pid="1" order="2" pattern="K1,K2"/>
    </key>
  </candidate>
  <candidate name="person" xpath="movie_database/movies/movie/people/person"
             threshold="0.85">
    <path id="1" relPath="text()"/>
    <od pid="1" relevance="1"/>
    <key name="name"><part pid="1" order="1" pattern="C1-C6"/></key>
  </candidate>
</sxnm-config>`

const testDocXML = `
<movie_database>
  <movies>
    <movie year="1999"><title>The Matrix</title><people><person>Keanu Reeves</person><person>Carrie-Anne Moss</person></people></movie>
    <movie year="1999"><title>Matrix, The</title><people><person>Keanu Reves</person><person>Carrie-Anne Moss</person></people></movie>
    <movie year="1998"><title>Mask of Zorro</title><people><person>Antonio Banderas</person></people></movie>
    <movie year="1999"><title>The Matrrix</title><people><person>Keanu Reeves</person></people></movie>
    <movie year="1998"><title>The Mask of Zorro</title><people><person>Antonio Bandera</person></people></movie>
    <movie year="1972"><title>The Godfather</title><people><person>Marlon Brando</person><person>Al Pacino</person></people></movie>
    <movie year="1972"><title>Godfather, The</title><people><person>Marlon Brando</person><person>Al Pacinno</person></people></movie>
    <movie year="1994"><title>Leon</title><people><person>Jean Reno</person></people></movie>
  </movies>
</movie_database>`

func testBody(t *testing.T, mutate func(map[string]any)) []byte {
	t.Helper()
	m := map[string]any{
		"config_xml":   testConfigXML,
		"document_xml": testDocXML,
	}
	if mutate != nil {
		mutate(m)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		SpoolDir:       t.TempDir(),
		Workers:        2,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
		Logf:           t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

func postJob(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response from %s: %v", url, err)
	}
	return resp, out
}

// waitTerminal polls the job until it leaves queued/running.
func waitTerminal(t *testing.T, s *Server, id string) *job {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		j := s.Job(id)
		if j == nil {
			t.Fatalf("job %s vanished", id)
		}
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		if st.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, _ := body["error"].(map[string]any)
	if e == nil {
		t.Fatalf("response has no error envelope: %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

func TestSubmitRunAndFetchClusters(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJob(t, ts, testBody(t, nil))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", resp.StatusCode, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", body)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+id {
		t.Errorf("Location = %q", loc)
	}

	j := waitTerminal(t, s, id)
	resp, status := getJSON(t, ts.URL+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status fetch = %d", resp.StatusCode)
	}
	if st := status["state"]; st != "done" {
		t.Fatalf("state = %v, error = %v", st, status["error"])
	}
	if status["summary"] == nil || status["stats"] == nil {
		t.Errorf("done status missing summary/stats: %v", status)
	}

	resp, clusters := getJSON(t, ts.URL+"/v1/jobs/"+id+"/clusters")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clusters fetch = %d", resp.StatusCode)
	}
	cm, _ := clusters["clusters"].(map[string]any)
	if cm["movie"] == nil || cm["person"] == nil {
		t.Fatalf("clusters missing candidates: %v", clusters)
	}

	// The spool holds the full durable record: job, outcome, report,
	// metrics (satellite: observability outputs on every terminal path).
	dir := s.spool.jobDir(id)
	for _, f := range []string{spoolJobFile, spoolOutcomeFile, spoolReportFile, spoolMetricsFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("spool missing %s: %v", f, err)
		}
	}
	_ = j
}

func TestTypedRejections(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxBodyBytes = 4096
		c.MaxLimits = sxnm.Limits{MaxComparisons: 100}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"malformed json", []byte("{nope"), 400, "malformed-request"},
		{"trailing garbage", append(testBody(t, nil), []byte("{}")...), 400, "malformed-request"},
		{"unknown field", []byte(`{"config_xml":"x","document_xml":"y","bogus":1}`), 400, "malformed-request"},
		{"missing config", testBody(t, func(m map[string]any) { delete(m, "config_xml") }), 400, "missing-config"},
		{"missing document", testBody(t, func(m map[string]any) { delete(m, "document_xml") }), 400, "missing-document"},
		{"bad tenant", testBody(t, func(m map[string]any) { m["tenant"] = "no spaces" }), 400, "invalid-tenant"},
		{"negative limits", testBody(t, func(m map[string]any) { m["limits"] = map[string]any{"timeout_ms": -1} }), 400, "invalid-limits"},
		{"invalid config xml", testBody(t, func(m map[string]any) { m["config_xml"] = "<config/>" }), 400, "invalid-config"},
		{"limits exceed budget", testBody(t, func(m map[string]any) {
			m["limits"] = map[string]any{"max_comparisons": 1000}
		}), 400, "limits-exceed-budget"},
		{"oversized body", testBody(t, func(m map[string]any) {
			m["document_xml"] = strings.Repeat("<a/>", 4096)
		}), 413, "body-too-large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJob(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %v)", resp.StatusCode, tc.status, body)
			}
			if code := errCode(t, body); code != tc.code {
				t.Errorf("code = %q, want %q", code, tc.code)
			}
		})
	}

	if got := s.Met.JobsAccepted.Load(); got != 0 {
		t.Errorf("rejected submissions were counted as accepted: %d", got)
	}
}

// blockingRunner returns a Runner that parks jobs until released; it
// honors cancellation/drain like the engine would (typed interruption).
func blockingRunner() (runner func(context.Context, *sxnm.Detector, io.Reader, sxnm.CheckpointFS, string) (*sxnm.Result, error), release func()) {
	gate := make(chan struct{})
	return func(ctx context.Context, det *sxnm.Detector, doc io.Reader, fsys sxnm.CheckpointFS, dir string) (*sxnm.Result, error) {
		select {
		case <-gate:
			return defaultRunner(ctx, det, doc, fsys, dir)
		case <-ctx.Done():
			return nil, sxnm.ErrCanceled
		}
	}, func() { close(gate) }
}

func TestAdmissionControl(t *testing.T) {
	runner, release := blockingRunner()
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 1
		c.PerTenantJobs = 2
		c.Runner = runner
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Job 1 occupies the single worker; wait for it to start so job 2
	// deterministically occupies the queue slot.
	_, b1 := postJob(t, ts, testBody(t, nil))
	id1, _ := b1["id"].(string)
	waitFor(t, func() bool { return s.Met.RunningJobs.Load() == 1 })

	_, b2 := postJob(t, ts, testBody(t, func(m map[string]any) { m["tenant"] = "other" }))
	id2, _ := b2["id"].(string)
	if id2 == "" {
		t.Fatalf("second submission rejected: %v", b2)
	}

	// Queue full → 429 queue-full with Retry-After.
	resp, body := postJob(t, ts, testBody(t, func(m map[string]any) { m["tenant"] = "third" }))
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, body) != "queue-full" {
		t.Fatalf("expected queue-full 429, got %d %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full reject lacks Retry-After")
	}
	if s.Met.RejectsFull.Load() != 1 {
		t.Errorf("RejectsFull = %d", s.Met.RejectsFull.Load())
	}

	release()
	waitTerminal(t, s, id1)
	waitTerminal(t, s, id2)

	// Per-tenant cap: 2 active jobs for one tenant, third rejected.
	runner2, release2 := blockingRunner()
	s2 := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 10
		c.PerTenantJobs = 2
		c.Runner = runner2
	})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer release2()

	for i := 0; i < 2; i++ {
		if resp, b := postJob(t, ts2, testBody(t, nil)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d rejected: %v", i, b)
		}
	}
	resp, body = postJob(t, ts2, testBody(t, nil))
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, body) != "tenant-busy" {
		t.Fatalf("expected tenant-busy 429, got %d %v", resp.StatusCode, body)
	}
	// A different tenant still gets in.
	if resp, b := postJob(t, ts2, testBody(t, func(m map[string]any) { m["tenant"] = "other" })); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant rejected: %v", b)
	}
	if s2.Met.RejectsTenant.Load() != 1 {
		t.Errorf("RejectsTenant = %d", s2.Met.RejectsTenant.Load())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestCancelRunningAndQueued(t *testing.T) {
	runner, release := blockingRunner()
	defer release()
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 4
		c.Runner = runner
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, b1 := postJob(t, ts, testBody(t, nil))
	id1, _ := b1["id"].(string)
	waitFor(t, func() bool { return s.Met.RunningJobs.Load() == 1 })
	_, b2 := postJob(t, ts, testBody(t, nil))
	id2, _ := b2["id"].(string)

	// Cancel the queued job: terminal immediately, durable outcome.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id2, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued = %d", resp.StatusCode)
	}
	j2 := waitTerminal(t, s, id2)
	j2.mu.Lock()
	st2 := j2.state
	j2.mu.Unlock()
	if st2 != StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", st2)
	}

	// Cancel the running job: its context is canceled, the runner
	// returns a typed interruption, and the job finishes canceled with
	// report/metrics files written (satellite: outputs on cancellation).
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id1, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	j1 := waitTerminal(t, s, id1)
	j1.mu.Lock()
	st1 := j1.state
	j1.mu.Unlock()
	if st1 != StateCanceled {
		t.Fatalf("running job state = %s, want canceled", st1)
	}
	for _, id := range []string{id1, id2} {
		out, err := s.spool.loadOutcome(id)
		if err != nil || out == nil || out.State != StateCanceled {
			t.Errorf("job %s: outcome = %+v, err %v", id, out, err)
		}
		for _, f := range []string{spoolReportFile, spoolMetricsFile} {
			if _, err := os.Stat(filepath.Join(s.spool.jobDir(id), f)); err != nil {
				t.Errorf("canceled job %s missing %s: %v", id, f, err)
			}
		}
	}
	if got := s.Met.JobsCanceled.Load(); got != 2 {
		t.Errorf("JobsCanceled = %d, want 2", got)
	}

	// Unknown job and double cancel.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown = %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id1, nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK { // already terminal: no-op
		t.Errorf("double cancel = %d", resp.StatusCode)
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	var calls int
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.MaxAttempts = 3
		c.Runner = func(ctx context.Context, det *sxnm.Detector, doc io.Reader, fsys sxnm.CheckpointFS, dir string) (*sxnm.Result, error) {
			calls++
			if calls <= 2 {
				return nil, fmt.Errorf("transient I/O glitch %d", calls)
			}
			return defaultRunner(ctx, det, doc, fsys, dir)
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, b := postJob(t, ts, testBody(t, nil))
	id, _ := b["id"].(string)
	j := waitTerminal(t, s, id)
	j.mu.Lock()
	st, attempts := j.state, j.attempts
	j.mu.Unlock()
	if st != StateDone {
		t.Fatalf("state = %s (err %s)", st, j.errMsg)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if got := s.Met.Retries.Load(); got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
}

func TestTransientExhaustedFails(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.MaxAttempts = 2
		c.Runner = func(ctx context.Context, det *sxnm.Detector, doc io.Reader, fsys sxnm.CheckpointFS, dir string) (*sxnm.Result, error) {
			return nil, errors.New("disk unhappy")
		}
	})
	_, apiErr := s.Submit(mustRequest(t, nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	var id string
	s.mu.Lock()
	for jid := range s.jobs {
		id = jid
	}
	s.mu.Unlock()
	j := waitTerminal(t, s, id)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateFailed || j.errCode != "transient-exhausted" {
		t.Fatalf("state = %s, code %q", j.state, j.errCode)
	}
	if j.attempts != 2 {
		t.Errorf("attempts = %d, want 2", j.attempts)
	}
}

func TestFailFastPaths(t *testing.T) {
	t.Run("invalid document", func(t *testing.T) {
		s := newTestServer(t, nil)
		j, apiErr := s.Submit(mustRequest(t, func(r *JobRequest) { r.DocumentXML = "<unclosed>" }))
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		got := waitTerminal(t, s, j.id)
		got.mu.Lock()
		defer got.mu.Unlock()
		if got.state != StateFailed || got.errCode != "invalid-document" {
			t.Fatalf("state = %s code %q", got.state, got.errCode)
		}
		if got.attempts != 1 {
			t.Errorf("fail-fast fault was retried: attempts = %d", got.attempts)
		}
	})

	t.Run("budget breach", func(t *testing.T) {
		s := newTestServer(t, nil)
		j, apiErr := s.Submit(mustRequest(t, func(r *JobRequest) {
			r.Limits = &LimitsSpec{MaxComparisons: 1}
		}))
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		got := waitTerminal(t, s, j.id)
		got.mu.Lock()
		defer got.mu.Unlock()
		if got.state != StateFailed || got.errCode != "limit-exceeded" {
			t.Fatalf("state = %s code %q (%s)", got.state, got.errCode, got.errMsg)
		}
		if got.attempts != 1 {
			t.Errorf("budget breach was retried: attempts = %d", got.attempts)
		}
	})

	t.Run("panic containment", func(t *testing.T) {
		s := newTestServer(t, func(c *Config) {
			c.Runner = func(ctx context.Context, det *sxnm.Detector, doc io.Reader, fsys sxnm.CheckpointFS, dir string) (*sxnm.Result, error) {
				panic("engine bug")
			}
		})
		j, apiErr := s.Submit(mustRequest(t, nil))
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		got := waitTerminal(t, s, j.id)
		got.mu.Lock()
		st, code := got.state, got.errCode
		got.mu.Unlock()
		if st != StateFailed || code != "panic" {
			t.Fatalf("state = %s code %q", st, code)
		}
		if s.Met.PanicsContained.Load() != 1 {
			t.Errorf("PanicsContained = %d", s.Met.PanicsContained.Load())
		}
		// The daemon survived: it still accepts and completes work.
		j2, apiErr := s.Submit(mustRequest(t, nil))
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		_ = waitTerminal(t, s, j2.id)
	})
}

func mustRequest(t *testing.T, mutate func(*JobRequest)) *JobRequest {
	t.Helper()
	req := &JobRequest{ConfigXML: testConfigXML, DocumentXML: testDocXML}
	if mutate != nil {
		mutate(req)
	}
	if apiErr := req.validate(); apiErr != nil {
		t.Fatal(apiErr)
	}
	return req
}

func TestHealthReadyMetricsEndpoints(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", err, resp)
	}
	resp.Body.Close()

	_, b := postJob(t, ts, testBody(t, nil))
	id, _ := b["id"].(string)
	waitTerminal(t, s, id)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"sxnmd_jobs_accepted_total 1",
		"sxnmd_jobs_done_total 1",
		"sxnmd_queue_depth 0",
		"sxnmd_engine_comparisons_total",
		"sxnmd_engine_window_pairs_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestSharedSimCacheAcrossJobs(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Engine.SimCache = true
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 2; i++ {
		_, b := postJob(t, ts, testBody(t, nil))
		id, _ := b["id"].(string)
		ids = append(ids, id)
		waitTerminal(t, s, id)
	}
	first := s.Job(ids[0]).snapshot()
	second := s.Job(ids[1]).snapshot()
	if second.SimCacheHits <= first.SimCacheHits {
		t.Errorf("warm second job should hit the shared cache more: first %d hits, second %d",
			first.SimCacheHits, second.SimCacheHits)
	}
	// Determinism: identical clusters despite the warm cache.
	o1, _ := s.spool.loadOutcome(ids[0])
	o2, _ := s.spool.loadOutcome(ids[1])
	c1, _ := json.Marshal(o1.Clusters)
	c2, _ := json.Marshal(o2.Clusters)
	if !bytes.Equal(c1, c2) {
		t.Error("warm-cache run produced different clusters")
	}
	if s.pool.len() == 0 {
		t.Error("cache pool is empty after SimCache jobs")
	}
}
