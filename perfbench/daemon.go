package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	sxnm "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/xmltree"
)

// The daemon workload feeds sxnmd an open loop of jobs: job i is due at
// t0 + i/rate whatever happened to earlier jobs, and its latency is
// measured from that due time.

const jobTimeout = 60 * time.Second // a job not terminal by then counts as failed

// poolDoc is one distinct job document with its expected outcome,
// computed in-process during set-up.
type poolDoc struct {
	body   []byte // the POST /v1/jobs request
	mb     float64
	digest string
	f1     float64
	layers *layerTimes // traced reference run (traced mode only)
}

// jobResult is what the load generator saw of one job.
type jobResult struct {
	doc    int
	sched  time.Time
	sent   time.Time
	done   time.Time
	polls  int
	status jobStatus
	// problem says why the job failed (refused, errored, timed out);
	// mismatch says its clusters differ from the reference, which
	// fails the run's output check.
	problem  string
	mismatch string
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	ID        string        `json:"id"`
	State     string        `json:"state"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started"`
	Finished  *time.Time    `json:"finished"`
	Stats     *obs.Snapshot `json:"stats"`
}

func (r *jobResult) ok() bool {
	return r.problem == "" && r.mismatch == "" && r.status.State == "done"
}

// daemonOptions are the engine options cmd/sxnmd runs jobs with by
// default: -pair-workers -1 and -sim-cache on, and no filter.
func daemonOptions() core.Options {
	return core.Options{PairWorkers: -1, SimCache: true}
}

// daemonConfig mirrors cmd/sxnmd's flag defaults for the in-process
// server of the traced run.
func daemonConfig(spool string, fsys sxnm.CheckpointFS) server.Config {
	return server.Config{
		SpoolDir:        spool,
		LeaseTTL:        15 * time.Second,
		QueueCap:        64,
		Workers:         2,
		PerTenantJobs:   4,
		MaxBodyBytes:    8 << 20,
		MaxAttempts:     3,
		RetryBaseDelay:  100 * time.Millisecond,
		RetryMaxDelay:   5 * time.Second,
		JournalMaxBytes: 1 << 20,
		CheckpointFS:    fsys,
		Engine:          daemonOptions(),
	}
}

// buildPool generates the job documents, their requests and their
// reference outcomes.
func buildPool(e *env, w workloadSpec, traced bool) ([]poolDoc, error) {
	pool := make([]poolDoc, w.Pool)
	for k := range pool {
		c, err := writeCorpus(e.work, fmt.Sprintf("job-%d", k), w.Name, w.Objects, e.seed*1000+int64(k))
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.JobRequest{
			Tenant:      fmt.Sprintf("tenant-%d", k%w.Tenants),
			ConfigXML:   c.cfgXML,
			DocumentXML: string(c.docBytes),
		})
		if err != nil {
			return nil, err
		}
		lt, err := pipeline(c.docBytes, c.cfg, daemonOptions(), false, "", traced)
		if err != nil {
			return nil, err
		}
		doc, err := xmltree.Parse(bytes.NewReader(c.docBytes))
		if err != nil {
			return nil, err
		}
		var g goldPairs
		if err := g.add(doc, c.cfg, lt.clusters, w.F1Candidates); err != nil {
			return nil, err
		}
		f1, err := g.f1()
		if err != nil {
			return nil, err
		}
		pool[k] = poolDoc{body: body, mb: float64(len(c.docBytes)) / 1e6, digest: lt.clusters.digest(), f1: f1}
		if traced {
			pool[k].layers = lt
		}
	}
	return pool, nil
}

// loadStats summarizes how late the generator ran against its schedule.
type loadStats struct {
	p50, p99, max time.Duration
	behind        bool
}

// openLoop submits n jobs at the offered rate through client and
// follows each to its terminal state. It is one process using at most
// as many connections as the client's transport allows.
func openLoop(client *http.Client, base string, pool []poolDoc, w workloadSpec, n int) ([]jobResult, loadStats) {
	results := make([]jobResult, n)
	interval := time.Duration(float64(time.Second) / w.OfferedRate)
	poll := time.Duration(w.PollIntervalMS) * time.Millisecond
	t0 := time.Now().Add(50 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range results {
		r := &results[i]
		r.doc = i % len(pool)
		r.sched = t0.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(r.sched))
		wg.Add(1)
		go func() {
			defer wg.Done()
			followJob(client, base, pool[r.doc], poll, r)
		}()
	}
	wg.Wait()

	late := make([]float64, n)
	for i, r := range results {
		late[i] = float64(r.sent.Sub(r.sched))
	}
	ls := loadStats{
		p50: time.Duration(quantile(late, 0.5)),
		p99: time.Duration(quantile(late, 0.99)),
		max: time.Duration(quantile(late, 1)),
	}
	// Behind schedule: the slowest 1% of sends slipped by more than one
	// inter-arrival gap, so the offered load was not the stated rate.
	ls.behind = ls.p99 > interval
	return results, ls
}

// followJob submits one job, polls it to a terminal state and checks
// its clusters against the reference. The send time is taken when the
// POST gets its connection, so a wait for a free connection in the
// client's pool counts as the generator running late.
func followJob(client *http.Client, base string, d poolDoc, poll time.Duration, r *jobResult) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(d.body))
	if err != nil {
		r.problem = fmt.Sprintf("submit: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	// A transport without connections (the in-process handler) never
	// reports GotConn; the send time is then the call itself.
	r.sent = time.Now()
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { r.sent = time.Now() },
	}))
	resp, err := client.Do(req)
	if err != nil {
		r.problem = fmt.Sprintf("submit: %v", err)
		return
	}
	err = json.NewDecoder(resp.Body).Decode(&r.status)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		r.problem = fmt.Sprintf("submit refused with %d", resp.StatusCode)
		return
	}
	if err != nil {
		r.problem = fmt.Sprintf("submit response: %v", err)
		return
	}
	id := r.status.ID
	for {
		time.Sleep(poll)
		r.polls++
		if err := getJSON(client, base+"/v1/jobs/"+id, &r.status); err != nil {
			r.problem = err.Error()
			return
		}
		if st := r.status.State; st == "done" || st == "failed" || st == "canceled" {
			break
		}
		if time.Since(r.sched) > jobTimeout {
			r.problem = fmt.Sprintf("job %s not terminal after %v", id, jobTimeout)
			return
		}
	}
	r.done = time.Now()
	if r.status.State != "done" {
		r.problem = fmt.Sprintf("job %s ended %s", id, r.status.State)
		return
	}
	var cl struct {
		Clusters clusterMap `json:"clusters"`
	}
	if err := getJSON(client, base+"/v1/jobs/"+id+"/clusters", &cl); err != nil {
		r.problem = err.Error()
		return
	}
	if got := cl.Clusters.digest(); got != d.digest {
		r.mismatch = fmt.Sprintf("job %s clusters %s, reference %s", id, got, d.digest)
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// daemon is one running sxnmd process.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	spool string
	log   *os.File
}

// startDaemon execs sxnmd with its default flags over a fresh spool and
// returns once /readyz answers 200, with the time that took.
func startDaemon(e *env, name string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{base: "http://" + addr, spool: filepath.Join(e.work, name)}
	if d.log, err = os.Create(d.spool + ".log"); err != nil {
		return nil, 0, err
	}
	d.cmd = exec.Command(filepath.Join(e.bin, "sxnmd"), "-spool", d.spool, "-addr", addr)
	d.cmd.Env = childEnv(e)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		return nil, 0, err
	}
	for time.Since(start) < 20*time.Second {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		// sxnmd is ready within a few milliseconds; a coarser poll would
		// add most of its own interval to setup_s.
		time.Sleep(250 * time.Microsecond)
	}
	d.stop(true)
	return nil, 0, fmt.Errorf("sxnmd did not become ready; see %s", d.log.Name())
}

// stop drains the daemon with SIGTERM, waits for it to exit and
// returns its peak RSS in MB, read from /proc as the drain starts (the
// rusage of a child started from the harness would include the
// harness's own resident set). A daemon that served work must exit 0,
// having drained. sxnmd answers /readyz before it installs its SIGTERM
// handler, so one stopped right after start-up (justStarted) may die of
// the signal instead; with nothing admitted yet, that is a clean stop.
func (d *daemon) stop(justStarted bool) (float64, error) {
	defer d.log.Close()
	hwm, hwmErr := procHWM(d.cmd.Process.Pid)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return 0, fmt.Errorf("sxnmd did not drain within 60s")
	}
	ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus)
	if err != nil && !(justStarted && ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM) {
		return 0, fmt.Errorf("sxnmd exited: %w", err)
	}
	if hwmErr != nil {
		return 0, hwmErr
	}
	return float64(hwm) * 1024 / 1e6, nil
}

func runDaemon(e *env, w workloadSpec, traced bool) (*outcome, error) {
	pool, err := buildPool(e, w, traced)
	if err != nil {
		return nil, err
	}
	if traced {
		return tracedDaemon(e, w, pool)
	}
	o := &outcome{metrics: map[string]float64{}}

	// Set-up: exec → first 200 from /readyz, over several starts.
	var setup []float64
	var d *daemon
	for i := 0; i < w.DaemonStarts; i++ {
		var ready time.Duration
		d, ready, err = startDaemon(e, fmt.Sprintf("spool-%d", i))
		if err != nil {
			return nil, err
		}
		setup = append(setup, ready.Seconds())
		if i < w.DaemonStarts-1 {
			if _, err := d.stop(true); err != nil {
				return nil, err
			}
		}
	}
	o.metrics["setup_s"] = quantile(setup, 0.5)

	n := int(w.OfferedRate * e.seconds.Seconds())
	conns := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		d.stop(true)
		return nil, err
	}
	results, ls := openLoop(client, d.base, pool, w, n)
	cpu1, err := procCPU(pid)
	client.CloseIdleConnections()
	rss, serr := d.stop(false)
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	o.metrics["peak_rss_mb"] = rss

	lat := tally(o, results, ls, w)
	o.metrics["job_ms_p50"] = quantile(lat, 0.5)
	o.metrics["job_ms_p90"] = quantile(lat, 0.9)
	o.metrics["success_rate"] = float64(o.attempted-o.failed) / float64(o.attempted)
	var doneMB float64
	var last time.Time
	for _, r := range results {
		if r.ok() {
			doneMB += pool[r.doc].mb
			if r.done.After(last) {
				last = r.done
			}
		}
	}
	span := last.Sub(results[0].sched).Seconds()
	if doneMB == 0 || span <= 0 {
		return nil, fmt.Errorf("no job completed: %v", o.problems)
	}
	o.metrics["throughput_mb_s"] = doneMB / span
	o.metrics["cpu_ms_per_mb"] = ms(cpu1-cpu0) / doneMB
	o.metrics["jobs_per_s"] = float64(o.attempted-o.failed) / span
	var f1 float64
	for _, p := range pool {
		f1 += p.f1
	}
	o.metrics["f1"] = f1 / float64(len(pool))
	return o, nil
}

// tally counts a load run's jobs into o and returns their latencies
// from scheduled send to terminal state. A refused or failed job counts
// as missing every latency limit; a job whose clusters differ from the
// reference fails the output check.
func tally(o *outcome, results []jobResult, ls loadStats, w workloadSpec) []float64 {
	var lat []float64
	for i := range results {
		r := &results[i]
		o.attempted++
		if r.mismatch != "" {
			o.fail("%s", r.mismatch)
		}
		if !r.ok() {
			if o.failed++; o.failed <= 5 {
				fmt.Fprintf(os.Stderr, "%s: job failed: %s%s\n", w.Name, r.problem, r.mismatch)
			}
			lat = append(lat, ms(jobTimeout))
			continue
		}
		lat = append(lat, ms(r.done.Sub(r.sched)))
	}
	fmt.Fprintf(os.Stderr, "%s: %d jobs at %.1f/s, generator lateness p50 %v p99 %v max %v\n",
		w.Name, len(results), w.OfferedRate, ls.p50, ls.p99, ls.max)
	if ls.behind {
		o.fail("load generator fell behind its schedule (p99 lateness %v > one inter-arrival gap); the run is invalid", ls.p99)
	}
	return lat
}

// handlerTransport serves client requests straight from the in-process
// server's Handler, timing every submission.
type handlerTransport struct {
	h       http.Handler
	mu      sync.Mutex
	submits []float64 // ms per POST /v1/jobs
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(rec, req)
	if req.Method == http.MethodPost {
		d := ms(time.Since(start))
		t.mu.Lock()
		t.submits = append(t.submits, d)
		t.mu.Unlock()
	}
	return rec.Result(), nil
}

// inProcessRun is one open loop against server.New + Handler.
type inProcessRun struct {
	results []jobResult
	spool   string
	fs      *spoolFS
	submits []float64
	gc      uint32
}

func runInProcess(e *env, w workloadSpec, pool []poolDoc, name string, instrumented bool, n int) (*inProcessRun, loadStats, error) {
	run := &inProcessRun{spool: filepath.Join(e.work, name)}
	fsys := sxnm.OSCheckpointFS()
	if instrumented {
		run.fs = &spoolFS{inner: fsys}
		fsys = run.fs
	}
	srv, err := server.New(daemonConfig(run.spool, fsys))
	if err != nil {
		return nil, loadStats{}, err
	}
	rt := &handlerTransport{h: srv.Handler()}
	gc0 := readMem().numGC
	results, ls := openLoop(&http.Client{Transport: rt}, "http://sxnmd.invalid", pool, w, n)
	run.gc = readMem().numGC - gc0
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return nil, ls, fmt.Errorf("draining the in-process server: %w", err)
	}
	run.results, run.submits = results, rt.submits
	return run, ls, nil
}

func tracedDaemon(e *env, w workloadSpec, pool []poolDoc) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	m := o.metrics
	heap := startHeapSampler()
	// Half the window runs with plain I/O, half with the counting
	// filesystem seam; their latency ratio is the tracing overhead.
	n := int(w.OfferedRate * e.seconds.Seconds() / 2)
	plain, plainLS, err := runInProcess(e, w, pool, "spool-plain", false, n)
	if err != nil {
		heap.Stop()
		return nil, err
	}
	run, ls, err := runInProcess(e, w, pool, "spool-traced", true, n)
	m["runtime.heap_peak_mb"] = heap.Stop()
	if err != nil {
		return nil, err
	}
	plainLat := tally(o, plain.results, plainLS, w)
	m["trace.overhead_ratio"] = quantile(tally(o, run.results, ls, w), 0.5) / quantile(plainLat, 0.5)

	// Engine layers, per document: the traced reference runs of set-up.
	med := func(f func(*layerTimes) float64) float64 {
		xs := make([]float64, len(pool))
		for i, p := range pool {
			xs[i] = f(p.layers)
		}
		return quantile(xs, 0.5)
	}
	m["xmltree.parse_ms"] = med(func(r *layerTimes) float64 { return ms(r.parse) })
	m["xmltree.parse_allocs"] = med(func(r *layerTimes) float64 { return float64(r.parseAllocs) })
	m["xmltree.parse_alloc_mb"] = med(func(r *layerTimes) float64 { return float64(r.parseBytes) / 1e6 })
	m["xmltree.nodes"] = med(func(r *layerTimes) float64 { return float64(r.nodes) })
	m["keygen.dom_ms"] = med(func(r *layerTimes) float64 { return ms(r.keygen) })
	m["keygen.dom_allocs"] = med(func(r *layerTimes) float64 { return float64(r.keygenAllocs) })
	m["keygen.gk_rows"] = med(func(r *layerTimes) float64 { return float64(r.gkRows) })
	m["window.detect_ms"] = med(func(r *layerTimes) float64 { return ms(r.detect) })
	m["window.detect_allocs"] = med(func(r *layerTimes) float64 { return float64(r.detectAllocs) })
	m["window.sliding_ms"] = med(func(r *layerTimes) float64 { return ms(r.stats.SlidingWindow) })
	m["cluster.closure_ms"] = med(func(r *layerTimes) float64 { return ms(r.stats.TransitiveClosure) })
	m["cluster.duplicate_pairs"] = med(func(r *layerTimes) float64 { return float64(r.stats.DuplicatePairs) })
	m["cluster.non_singleton"] = med(func(r *layerTimes) float64 {
		n := 0
		for _, cs := range r.stats.Candidates {
			n += cs.NonSingleton
		}
		return float64(n)
	})

	// Server layers and the engine counters as the daemon saw them.
	var ok []*jobResult
	for i := range run.results {
		if r := &run.results[i]; r.ok() && r.status.Stats != nil && r.status.Started != nil && r.status.Finished != nil {
			ok = append(ok, r)
		}
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("no in-process job completed: %v", o.problems)
	}
	perJob := func(f func(*jobResult) float64) []float64 {
		xs := make([]float64, len(ok))
		for i, r := range ok {
			xs[i] = f(r)
		}
		return xs
	}
	wait := perJob(func(r *jobResult) float64 { return ms(r.status.Started.Sub(r.status.Submitted)) })
	attempt := perJob(func(r *jobResult) float64 { return ms(r.status.Finished.Sub(*r.status.Started)) })
	m["server.submit_ms_p50"] = quantile(run.submits, 0.5)
	m["server.queue_wait_ms_p50"] = quantile(wait, 0.5)
	m["server.queue_wait_ms_p90"] = quantile(wait, 0.9)
	m["server.attempt_ms_p50"] = quantile(attempt, 0.5)
	polls := perJob(func(r *jobResult) float64 { return float64(r.polls) })
	m["server.status_polls_per_job"] = quantile(polls, 0.5)
	m["trace.unattributed_ms"] = quantile(perJob(func(r *jobResult) float64 {
		return ms(r.done.Sub(r.sched) - r.status.Finished.Sub(r.status.Submitted))
	}), 0.5)
	m["runtime.gc_cycles"] = float64(run.gc) / float64(len(run.results))
	var hits, misses, evictions int64
	for _, r := range ok {
		hits += r.status.Stats.SimCacheHits
		misses += r.status.Stats.SimCacheMisses
		evictions += r.status.Stats.SimCacheEvictions
	}
	snapMed := func(f func(*obs.Snapshot) float64) float64 {
		return quantile(perJob(func(r *jobResult) float64 { return f(r.status.Stats) }), 0.5)
	}
	m["window.pairs"] = snapMed(func(s *obs.Snapshot) float64 { return float64(s.WindowPairs) })
	m["window.comparisons"] = snapMed(func(s *obs.Snapshot) float64 { return float64(s.Comparisons) })
	m["window.filtered_out"] = snapMed(func(s *obs.Snapshot) float64 { return float64(s.FilteredOut) })
	m["window.filter_hit_rate"] = snapMed(func(s *obs.Snapshot) float64 { return s.FilterHitRate })
	m["window.od_sim_calls"] = snapMed(func(s *obs.Snapshot) float64 { return float64(s.ODSimCalls) })
	m["window.desc_sim_calls"] = snapMed(func(s *obs.Snapshot) float64 { return float64(s.DescSimCalls) })
	m["window.comparisons_per_s"] = snapMed(func(s *obs.Snapshot) float64 { return s.ComparisonsPerSec })
	nj := float64(len(ok))
	m["simcache.hits"] = float64(hits) / nj
	m["simcache.misses"] = float64(misses) / nj
	m["simcache.evictions"] = float64(evictions) / nj
	if hits+misses > 0 {
		m["simcache.hit_rate"] = float64(hits) / float64(hits+misses)
	}
	fs := run.fs
	m["checkpoint.writes"] = float64(fs.checkpoint.ops.Load()) / nj
	m["checkpoint.bytes"] = float64(fs.checkpoint.bytes.Load()) / nj
	m["checkpoint.fsyncs"] = float64(fs.checkpoint.syncs.Load()) / nj
	m["checkpoint.io_ms"] = ms(time.Duration(fs.checkpoint.nanos.Load())) / nj
	m["journal.appends"] = float64(fs.journal.ops.Load()) / nj
	m["journal.bytes"] = float64(fs.journal.bytes.Load()) / nj
	m["journal.io_ms"] = ms(time.Duration(fs.journal.nanos.Load())) / nj
	m["spool.writes"] = float64(fs.spool.ops.Load()) / nj
	m["spool.fsyncs"] = float64(fs.spool.syncs.Load()) / nj
	m["spool.io_ms"] = ms(time.Duration(fs.spool.nanos.Load())) / nj

	// Cross-check against the binary: the same request through sxnmd
	// must give the same clusters and the same window counters as the
	// in-process server's job.
	ref := ok[0]
	d, _, err := startDaemon(e, "spool-check")
	if err != nil {
		return nil, err
	}
	var check jobResult
	check.sched = time.Now()
	followJob(&http.Client{}, d.base, pool[ref.doc], 10*time.Millisecond, &check)
	if _, err := d.stop(false); err != nil {
		return nil, err
	}
	if !check.ok() {
		return nil, fmt.Errorf("cross-check job on sxnmd: %s%s", check.problem, check.mismatch)
	}
	binTot, err := reportTotals(filepath.Join(d.spool, check.status.ID, "report.json"))
	if err != nil {
		return nil, err
	}
	inTot, err := reportTotals(filepath.Join(run.spool, ref.status.ID, "report.json"))
	if err != nil {
		return nil, err
	}
	checkCounters(o, "sxnmd's report.json", binTot, inTot.Comparisons, inTot.FilteredOut)
	fmt.Fprintf(os.Stderr, "%s traced: %d in-process jobs per half; cross-check job %s (%d comparisons)\n",
		w.Name, n, check.status.ID, binTot.Comparisons)
	return o, nil
}
