package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// Batch workloads run the sxnm CLI once per operation over one corpus.

const (
	warmups        = 3 // untimed invocations before the window; setup_s is their median
	minInvocations = 5 // the window is extended until at least this many ran
)

// invocation is one measured sxnm run.
type invocation struct {
	wall   time.Duration
	cpu    time.Duration
	rssKB  int64
	digest string // sha256 of the -clusters-xml bytes
	err    error
}

// sxnmArgs are the shipped CLI's flags for a workload: the defaults plus
// the workload's own, and an output file for the check.
func sxnmArgs(c *corpus, w workloadSpec, out string, extra ...string) []string {
	args := []string{"-config", c.cfgPath, "-input", c.docPath}
	args = append(args, w.Args...)
	args = append(args, extra...)
	return append(args, "-clusters-xml", out)
}

// invoke runs sxnm once, through the -spawn helper, and measures it.
func invoke(e *env, args []string, out string) invocation {
	cmd := exec.Command(e.self, append([]string{"-spawn", filepath.Join(e.bin, "sxnm")}, args...)...)
	cmd.Env = childEnv(e)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var u childUsage
	if jerr := json.Unmarshal(stdout.Bytes(), &u); jerr != nil && err == nil {
		err = fmt.Errorf("reading the usage report: %w", jerr)
	}
	inv := invocation{wall: time.Duration(u.WallNS), cpu: time.Duration(u.CPUNS), rssKB: u.MaxRSSKB}
	if err != nil {
		inv.err = fmt.Errorf("sxnm %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
		return inv
	}
	b, err := os.ReadFile(out)
	if err != nil {
		inv.err = err
		return inv
	}
	sum := sha256.Sum256(b)
	inv.digest = fmt.Sprintf("%x", sum[:8])
	return inv
}

// childUsage is what the -spawn helper reports about the command it ran.
type childUsage struct {
	WallNS   int64 `json:"wall_ns"`
	CPUNS    int64 `json:"cpu_ns"`
	MaxRSSKB int64 `json:"maxrss_kb"`
}

// spawn runs args as a child of this small process, passing its stderr
// through, and prints the child's wall time, CPU time and peak RSS as
// JSON. The harness starts sxnm through it because Linux folds the
// resident set of a vfork parent into the child's ru_maxrss: started
// straight from the harness, sxnm would report at least the harness's
// own memory.
func spawn(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench -spawn: no command")
		return 2
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	u := childUsage{WallNS: int64(time.Since(start))}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			u.CPUNS = ru.Utime.Nano() + ru.Stime.Nano()
			u.MaxRSSKB = ru.Maxrss
		}
	}
	if jerr := json.NewEncoder(os.Stdout).Encode(u); jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench -spawn:", jerr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench -spawn:", err)
		return 1
	}
	return 0
}

// childEnv keeps the programs' temporary files inside the checkout.
func childEnv(e *env) []string {
	tmp := filepath.Join(e.work, "tmp")
	os.MkdirAll(tmp, 0o755)
	return append(os.Environ(), "TMPDIR="+tmp)
}

func runBatch(e *env, w workloadSpec, traced bool) (*outcome, error) {
	c, err := writeCorpus(e.work, "input", w.Name, w.Objects, e.seed)
	if err != nil {
		return nil, err
	}
	if traced {
		return tracedBatch(e, w, c)
	}
	o := &outcome{metrics: map[string]float64{}}
	out := filepath.Join(e.work, "clusters.xml")
	args := sxnmArgs(c, w, out)

	var setup []float64
	want := ""
	for i := 0; i < warmups; i++ {
		inv := invoke(e, args, out)
		if inv.err != nil {
			return nil, inv.err
		}
		setup = append(setup, inv.wall.Seconds())
		want = inv.digest
	}
	o.metrics["setup_s"] = quantile(setup, 0.5)

	var walls, cpus, rss []float64
	start := time.Now()
	for time.Since(start) < e.seconds || o.attempted < minInvocations {
		inv := invoke(e, args, out)
		o.attempted++
		if inv.err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "%s: invocation failed: %v\n", w.Name, inv.err)
			continue
		}
		if inv.digest != want {
			o.failed++
			o.fail("invocation %d: clusters digest %s, want %s", o.attempted, inv.digest, want)
			continue
		}
		walls = append(walls, ms(inv.wall))
		cpus = append(cpus, ms(inv.cpu))
		rss = append(rss, float64(inv.rssKB)*1024/1e6)
	}
	elapsed := time.Since(start)
	if len(walls) == 0 {
		return nil, fmt.Errorf("%s: no invocation succeeded", w.Name)
	}

	mb := float64(len(c.docBytes)) / 1e6
	p50 := quantile(walls, 0.5)
	o.metrics["throughput_mb_s"] = mb / (p50 / 1000)
	o.metrics["cpu_ms_per_mb"] = quantile(cpus, 0.5) / mb
	o.metrics["peak_rss_mb"] = quantile(rss, 0.5)
	o.metrics["job_ms_p50"] = p50
	o.metrics["job_ms_p90"] = quantile(walls, 0.9)
	o.metrics["jobs_per_s"] = float64(len(walls)) / elapsed.Seconds()
	o.metrics["success_rate"] = float64(o.attempted-o.failed) / float64(o.attempted)
	fmt.Fprintf(os.Stderr, "%s: %d invocations over %.1fs, input %.2f MB\n", w.Name, o.attempted, elapsed.Seconds(), mb)

	// Quality: F1 of the checked output against the planted gold, over
	// the measured corpus and the workload's extra corpora.
	got, err := readClustersXML(out)
	if err != nil {
		return nil, err
	}
	if o.metrics["f1"], err = batchF1(e, w, c, got); err != nil {
		return nil, err
	}

	// The streaming, spilling path must find exactly what the
	// in-memory DOM path finds on the same corpus.
	if w.stream() {
		domOut := filepath.Join(e.work, "clusters-dom.xml")
		inv := invoke(e, []string{"-config", c.cfgPath, "-input", c.docPath, "-clusters-xml", domOut}, domOut)
		if inv.err != nil {
			return nil, inv.err
		}
		dom, err := readClustersXML(domOut)
		if err != nil {
			return nil, err
		}
		if dom.digest() != got.digest() {
			o.fail("%s clusters %s differ from the in-memory DOM run's %s", w.Name, got.digest(), dom.digest())
		}
	}
	return o, nil
}

// batchF1 scores the measured corpus's clusters and, untimed, those of
// sxnm on the workload's extra corpora.
func batchF1(e *env, w workloadSpec, c *corpus, got clusterMap) (float64, error) {
	var g goldPairs
	for k := 0; ; k++ {
		doc, err := xmltree.Parse(bytes.NewReader(c.docBytes))
		if err != nil {
			return 0, err
		}
		if err := g.add(doc, c.cfg, got, w.F1Candidates); err != nil {
			return 0, err
		}
		if k == w.F1ExtraCorpora {
			return g.f1()
		}
		if c, err = writeCorpus(e.work, fmt.Sprintf("f1-%d", k), w.Name, w.Objects, e.seed*1000+int64(k)); err != nil {
			return 0, err
		}
		out := filepath.Join(e.work, fmt.Sprintf("f1-%d-clusters.xml", k))
		if inv := invoke(e, sxnmArgs(c, w, out), out); inv.err != nil {
			return 0, inv.err
		}
		if got, err = readClustersXML(out); err != nil {
			return 0, err
		}
	}
}

// layerTimes is one traced pass through the pipeline.
type layerTimes struct {
	wall                                  time.Duration
	parse, keygen, stream, detect         time.Duration
	parseAllocs, parseBytes, keygenAllocs uint64
	streamAllocs, detectAllocs            uint64
	nodes, gkRows                         int
	stats                                 core.Stats
	clusters                              clusterMap
	snap                                  obs.Snapshot
	spill                                 *spillFS
}

// stream reports whether the workload runs sxnm -stream.
func (w workloadSpec) stream() bool { return slices.Contains(w.Args, "-stream") }

// batchOptions are the engine options the sxnm CLI runs with by
// default (see cmd/sxnm: -filter on, -pair-workers -1), plus the
// workload's spill threshold.
func batchOptions(w workloadSpec) core.Options {
	return core.Options{UseFilter: true, PairWorkers: -1, SpillThresholdRows: w.SpillRows}
}

// pipeline does in-process what one sxnm invocation does, timing each
// layer call from outside. With traced false it only measures the wall
// time (no observer, no memory statistics).
func pipeline(data []byte, cfg *config.Config, opts core.Options, stream bool, spillDir string, traced bool) (*layerTimes, error) {
	lt := &layerTimes{}
	var ob *obs.Observer
	if traced {
		ob = obs.New()
		opts.Observer = ob
	}
	if opts.SpillThresholdRows > 0 {
		opts.SpillDir = spillDir
		defer os.RemoveAll(spillDir)
		if traced {
			lt.spill = &spillFS{inner: extsort.OSFS()}
			opts.SpillFS = lt.spill
		}
	}
	mark := func() memPoint {
		if traced {
			return readMem()
		}
		return memPoint{}
	}
	m0 := mark()
	start := time.Now()
	var kg *core.KeyGenResult
	if stream { // no DOM
		var err error
		kg, err = core.GenerateKeysStream(bytes.NewReader(data), cfg)
		if err != nil {
			return nil, err
		}
		lt.stream = time.Since(start)
		m1 := mark()
		lt.streamAllocs = m1.mallocs - m0.mallocs
		m0 = m1
	} else {
		doc, err := xmltree.ParseWithLimits(bytes.NewReader(data), core.Limits{})
		if err != nil {
			return nil, err
		}
		lt.parse = time.Since(start)
		m1 := mark()
		lt.parseAllocs, lt.parseBytes = m1.mallocs-m0.mallocs, m1.totalAlloc-m0.totalAlloc
		t := time.Now()
		kg, err = core.GenerateKeys(doc, cfg)
		if err != nil {
			return nil, err
		}
		lt.keygen = time.Since(t)
		m2 := mark()
		lt.keygenAllocs = m2.mallocs - m1.mallocs
		m0 = m2
		if traced {
			st := doc.Stats()
			lt.nodes = st.Elements + st.TextNodes
		}
	}
	t := time.Now()
	res, err := core.Detect(kg, cfg, opts)
	if err != nil {
		return nil, err
	}
	lt.detect = time.Since(t)
	lt.wall = time.Since(start)
	m3 := mark()
	lt.detectAllocs = m3.mallocs - m0.mallocs
	lt.stats, lt.clusters = res.Stats, clustersOfResult(res)
	if traced {
		lt.snap = ob.Metrics().Snapshot()
		for _, tb := range kg.Tables {
			lt.gkRows += len(tb.Rows)
		}
	}
	return lt, nil
}

func tracedBatch(e *env, w workloadSpec, c *corpus) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	heap := startHeapSampler()
	gc0 := readMem().numGC
	var runs []*layerTimes
	var untraced []float64
	start := time.Now()
	for i := 0; time.Since(start) < e.seconds || len(runs) < minInvocations; i++ {
		spill := filepath.Join(e.work, fmt.Sprintf("spill-%d", i))
		plain, err := pipeline(c.docBytes, c.cfg, batchOptions(w), w.stream(), spill, false)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, ms(plain.wall))
		lt, err := pipeline(c.docBytes, c.cfg, batchOptions(w), w.stream(), spill+"t", true)
		if err != nil {
			return nil, err
		}
		runs = append(runs, lt)
		o.attempted++
	}
	gc := readMem().numGC - gc0
	o.metrics["runtime.heap_peak_mb"] = heap.Stop()
	o.metrics["runtime.gc_cycles"] = float64(gc) / float64(len(runs)+len(untraced))

	med := func(f func(*layerTimes) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return quantile(xs, 0.5)
	}
	m := o.metrics
	m["xmltree.parse_ms"] = med(func(r *layerTimes) float64 { return ms(r.parse) })
	m["xmltree.parse_allocs"] = med(func(r *layerTimes) float64 { return float64(r.parseAllocs) })
	m["xmltree.parse_alloc_mb"] = med(func(r *layerTimes) float64 { return float64(r.parseBytes) / 1e6 })
	m["xmltree.nodes"] = med(func(r *layerTimes) float64 { return float64(r.nodes) })
	m["keygen.dom_ms"] = med(func(r *layerTimes) float64 { return ms(r.keygen) })
	m["keygen.dom_allocs"] = med(func(r *layerTimes) float64 { return float64(r.keygenAllocs) })
	m["keygen.gk_rows"] = med(func(r *layerTimes) float64 { return float64(r.gkRows) })
	m["stream.keygen_ms"] = med(func(r *layerTimes) float64 { return ms(r.stream) })
	m["stream.keygen_allocs"] = med(func(r *layerTimes) float64 { return float64(r.streamAllocs) })
	m["window.detect_ms"] = med(func(r *layerTimes) float64 { return ms(r.detect) })
	m["window.detect_allocs"] = med(func(r *layerTimes) float64 { return float64(r.detectAllocs) })
	m["window.sliding_ms"] = med(func(r *layerTimes) float64 { return ms(r.stats.SlidingWindow) })
	m["cluster.closure_ms"] = med(func(r *layerTimes) float64 { return ms(r.stats.TransitiveClosure) })
	m["window.comparisons_per_s"] = med(func(r *layerTimes) float64 {
		return float64(r.snap.Comparisons+r.snap.FilteredOut) / r.detect.Seconds()
	})
	m["extsort.io_ms"] = med(func(r *layerTimes) float64 {
		if r.spill == nil {
			return 0
		}
		return ms(time.Duration(r.spill.write.nanos.Load() + r.spill.read.nanos.Load()))
	})
	m["extsort.spill_ms"] = med(func(r *layerTimes) float64 { return 1000 * r.snap.SpillWallSeconds })
	m["trace.unattributed_ms"] = med(func(r *layerTimes) float64 {
		return ms(r.wall - r.parse - r.keygen - r.stream - r.detect)
	})
	m["trace.overhead_ratio"] = med(func(r *layerTimes) float64 { return ms(r.wall) }) / quantile(untraced, 0.5)

	// Counts repeat exactly from run to run; report the last one.
	last := runs[len(runs)-1]
	addSnapshot(m, last.snap)
	m["cluster.duplicate_pairs"] = float64(last.stats.DuplicatePairs)
	nonSingleton := 0
	for _, cs := range last.stats.Candidates {
		nonSingleton += cs.NonSingleton
	}
	m["cluster.non_singleton"] = float64(nonSingleton)
	m["extsort.runs"] = float64(last.snap.SpillRuns)
	if last.spill != nil {
		m["extsort.bytes_written"] = float64(last.spill.write.bytes.Load())
		m["extsort.bytes_read"] = float64(last.spill.read.bytes.Load())
	}
	want := last.clusters.digest()
	for _, r := range runs {
		if d := r.clusters.digest(); d != want {
			o.fail("traced runs disagree: clusters %s vs %s", d, want)
			break
		}
	}
	fmt.Fprintf(os.Stderr, "%s traced: %d traced + %d untraced in-process runs\n", w.Name, len(runs), len(untraced))

	// Cross-check against the binary this run stands in for: same
	// clusters, same window counters.
	out := filepath.Join(e.work, "clusters.xml")
	report := filepath.Join(e.work, "report.json")
	inv := invoke(e, sxnmArgs(c, w, out, "-report", report), out)
	if inv.err != nil {
		return nil, inv.err
	}
	got, err := readClustersXML(out)
	if err != nil {
		return nil, err
	}
	if got.digest() != want {
		o.fail("traced clusters %s differ from sxnm's %s", want, got.digest())
	}
	tot, err := reportTotals(report)
	if err != nil {
		return nil, err
	}
	checkCounters(o, "sxnm -report", tot, last.snap.Comparisons, last.snap.FilteredOut)
	return o, nil
}

// addSnapshot copies the engine counters of one run into the per-layer
// metrics.
func addSnapshot(m map[string]float64, s obs.Snapshot) {
	m["window.pairs"] = float64(s.WindowPairs)
	m["window.comparisons"] = float64(s.Comparisons)
	m["window.filtered_out"] = float64(s.FilteredOut)
	m["window.filter_hit_rate"] = s.FilterHitRate
	m["window.od_sim_calls"] = float64(s.ODSimCalls)
	m["window.desc_sim_calls"] = float64(s.DescSimCalls)
	m["simcache.hits"] = float64(s.SimCacheHits)
	m["simcache.misses"] = float64(s.SimCacheMisses)
	m["simcache.hit_rate"] = s.SimCacheHitRate
	m["simcache.evictions"] = float64(s.SimCacheEvictions)
}

// reportTotals reads the totals of a report.json.
func reportTotals(path string) (obs.Totals, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return obs.Totals{}, err
	}
	var rep struct {
		Totals obs.Totals `json:"totals"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return obs.Totals{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep.Totals, nil
}

// checkCounters fails the run when the traced counters drifted from
// the binary's: a sign the traced options no longer match its defaults.
func checkCounters(o *outcome, what string, bin obs.Totals, comparisons, filtered int64) {
	if bin.Comparisons != comparisons || bin.FilteredOut != filtered {
		o.fail("traced comparisons/filtered_out %d/%d differ from %s's %d/%d",
			comparisons, filtered, what, bin.Comparisons, bin.FilteredOut)
	}
}
