// Command perfbench is the SXNM end-to-end benchmark. It builds the
// shipped sxnm and sxnmd binaries from the checkout it runs in, drives
// them with their default flags on one of four workloads, checks their
// outputs, and prints the end-to-end metrics. With -trace 1 it instead
// does the same work in-process, timing the calls into each layer's
// public functions, and prints the per-layer split.
//
// Usage (from the repository root, via the launcher that builds it):
//
//	bash perfbench/run.sh --workload movies-flat --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 25
//	bash perfbench/run.sh --compare .bench_build/results/A --against .bench_build/results/B
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check or a
// traced-vs-binary mismatch prints correct=false and exits 1. Every
// result is also stamped with the machine it ran on and saved under
// .bench_build/results; -compare refuses to compare results whose
// stamps differ.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

//go:embed workloads.json
var manifestJSON []byte

// manifest mirrors workloads.json: the workload parameters the harness
// runs with, recorded next to the layer → metric → workload map.
type manifest struct {
	Workloads   []workloadSpec `json:"workloads"`
	TuningSeeds []int64        `json:"tuning_seeds"`
}

type workloadSpec struct {
	Name           string   `json:"name"`
	Objects        int      `json:"objects"`
	Args           []string `json:"args"`
	SpillRows      int      `json:"spill_rows"`
	F1Candidates   []string `json:"f1_candidates"`
	F1ExtraCorpora int      `json:"f1_extra_corpora"`
	Pool           int      `json:"pool"`
	Tenants        int      `json:"tenants"`
	OfferedRate    float64  `json:"offered_rate_per_s"`
	PollIntervalMS int      `json:"poll_interval_ms"`
	DaemonStarts   int      `json:"daemon_starts"`
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_mb_s", "MB/s"},
	{"cpu_ms_per_mb", "ms/MB"},
	{"peak_rss_mb", "MB"},
	{"f1", "ratio"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"jobs_per_s", "1/s"},
	{"success_rate", "ratio"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"xmltree.parse_ms", "ms"}, {"xmltree.parse_allocs", "count"}, {"xmltree.parse_alloc_mb", "MB"}, {"xmltree.nodes", "count"},
	{"keygen.dom_ms", "ms"}, {"keygen.dom_allocs", "count"}, {"keygen.gk_rows", "count"},
	{"stream.keygen_ms", "ms"}, {"stream.keygen_allocs", "count"},
	{"window.detect_ms", "ms"}, {"window.sliding_ms", "ms"}, {"window.pairs", "count"}, {"window.comparisons", "count"},
	{"window.filtered_out", "count"}, {"window.filter_hit_rate", "ratio"}, {"window.od_sim_calls", "count"},
	{"window.desc_sim_calls", "count"}, {"window.comparisons_per_s", "1/s"}, {"window.detect_allocs", "count"},
	{"simcache.hits", "count"}, {"simcache.misses", "count"}, {"simcache.hit_rate", "ratio"}, {"simcache.evictions", "count"},
	{"cluster.closure_ms", "ms"}, {"cluster.duplicate_pairs", "count"}, {"cluster.non_singleton", "count"},
	{"extsort.runs", "count"}, {"extsort.bytes_written", "bytes"}, {"extsort.bytes_read", "bytes"}, {"extsort.io_ms", "ms"}, {"extsort.spill_ms", "ms"},
	{"checkpoint.writes", "count"}, {"checkpoint.bytes", "bytes"}, {"checkpoint.fsyncs", "count"}, {"checkpoint.io_ms", "ms"},
	{"journal.appends", "count"}, {"journal.bytes", "bytes"}, {"journal.io_ms", "ms"},
	{"spool.writes", "count"}, {"spool.fsyncs", "count"}, {"spool.io_ms", "ms"},
	{"server.submit_ms_p50", "ms"}, {"server.queue_wait_ms_p50", "ms"}, {"server.queue_wait_ms_p90", "ms"},
	{"server.attempt_ms_p50", "ms"}, {"server.status_polls_per_job", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.heap_peak_mb", "MB"}, {"trace.unattributed_ms", "ms"}, {"trace.overhead_ratio", "ratio"},
}

// outcome is what one workload run produces before it is printed.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // failed output checks and cross-checks
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// env is the per-run context shared by the workloads.
type env struct {
	root    string // checkout root
	self    string // this executable, for its -spawn helper mode
	bin     string // directory holding the built sxnm and sxnmd
	work    string // scratch directory of this run, removed at the end
	seed    int64
	seconds time.Duration
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-spawn" {
		os.Exit(spawn(os.Args[2:]))
	}
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name, or \"all\" to run every workload untraced and then traced")
		seed     = fs.Int64("seed", 1, "input generation seed")
		seconds  = fs.Int("seconds", 20, "measured seconds per run")
		trace    = fs.Int("trace", 0, "0 = end-to-end metrics of the shipped binaries, 1 = traced in-process per-layer split")
		root     = fs.String("root", ".", "repository checkout to build and measure")
		compare  = fs.String("compare", "", "compare the saved results in this directory ...")
		against  = fs.String("against", "", "... against the saved results in this one")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	var m manifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return 2, fmt.Errorf("workloads.json: %w", err)
	}
	if *compare != "" || *against != "" {
		return compareResults(*root, m.TuningSeeds, *compare, *against)
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		return 2, fmt.Errorf("-seconds must be at least 1")
	}
	var specs []workloadSpec
	for _, w := range m.Workloads {
		if *workload == "all" || w.Name == *workload {
			specs = append(specs, w)
		}
	}
	if len(specs) == 0 {
		return 2, fmt.Errorf("unknown -workload %q", *workload)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return 2, err
	}
	for _, need := range []string{"go.mod", "cmd/sxnm", "cmd/sxnmd"} {
		if _, err := os.Stat(filepath.Join(absRoot, need)); err != nil {
			return 2, fmt.Errorf("%s is not an SXNM checkout: %w", absRoot, err)
		}
	}
	build := filepath.Join(absRoot, ".bench_build")
	self, err := os.Executable()
	if err != nil {
		return 2, err
	}
	e := &env{root: absRoot, self: self, bin: filepath.Join(build, "bin"), seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if err := buildBinaries(e); err != nil {
		return 2, err
	}
	st := takeStamp()

	if *workload != "all" {
		e.work, err = os.MkdirTemp(build, "run-")
		if err != nil {
			return 2, err
		}
		defer os.RemoveAll(e.work)
		o, err := runOne(e, specs[0], *trace == 1)
		if err != nil {
			return 1, err
		}
		return emit(build, st, specs[0].Name, *seed, *trace, o)
	}

	// "all": every workload untraced, then traced, each with its own
	// scratch directory; the last line summarizes them all.
	total := &outcome{metrics: map[string]float64{}}
	for _, w := range specs {
		for _, traced := range []bool{false, true} {
			e.work, err = os.MkdirTemp(build, "run-")
			if err != nil {
				return 2, err
			}
			o, err := runOne(e, w, traced)
			os.RemoveAll(e.work)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.Name, err)
			}
			tr := 0
			if traced {
				tr = 1
			}
			fmt.Printf("== %s trace=%d ==\n", w.Name, tr)
			printTable(o, traced)
			if _, err := saveResult(build, st, w.Name, *seed, tr, o); err != nil {
				return 1, err
			}
			total.attempted += o.attempted
			total.failed += o.failed
			for _, p := range o.problems {
				total.fail("%s: %s", w.Name, p)
			}
			for k, v := range o.metrics {
				total.metrics[w.Name+"/"+k] = v
			}
		}
	}
	return printLast(total, nil)
}

// runOne runs one workload in one mode.
func runOne(e *env, w workloadSpec, traced bool) (*outcome, error) {
	if w.Name == "daemon-jobs" {
		return runDaemon(e, w, traced)
	}
	return runBatch(e, w, traced)
}

// buildBinaries compiles the shipped binaries of the checkout.
func buildBinaries(e *env) error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/sxnm", "./cmd/sxnmd")
	cmd.Dir = e.root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building sxnm and sxnmd: %w", err)
	}
	return nil
}

// emit prints and saves the result of a single-workload run.
func emit(build string, st stamp, name string, seed int64, trace int, o *outcome) (int, error) {
	printTable(o, trace == 1)
	path, err := saveResult(build, st, name, seed, trace, o)
	if err != nil {
		return 1, err
	}
	stampJSON, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", stampJSON)
	fmt.Printf("saved %s\n", path)
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	return printLast(o, defs)
}

// printTable writes every metric by name, value and unit, and the
// failed checks.
func printTable(o *outcome, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-30s %14.4f %s\n", d.name, o.metrics[d.name], d.unit)
	}
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// printLast prints the result line. With defs nil every metric in o is
// printed with the unit of its base name.
func printLast(o *outcome, defs []metricDef) (int, error) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	if defs != nil {
		for _, d := range defs {
			ms[d.name] = value{o.metrics[d.name], d.unit}
		}
	} else {
		for k, v := range o.metrics {
			ms[k] = value{v, units[k[strings.LastIndex(k, "/")+1:]]}
		}
	}
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(o.problems) == 0,
		"attempted": attempted,
		"failed":    o.failed,
		"metrics":   ms,
	})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if len(o.problems) > 0 {
		return 1, errors.New(strings.Join(o.problems, "; "))
	}
	return 0, nil
}

// savedResult is the on-disk form of one run, stamped with its machine.
type savedResult struct {
	Stamp    stamp              `json:"stamp"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    int                `json:"trace"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

func saveResult(build string, st stamp, name string, seed int64, trace int, o *outcome) (string, error) {
	dir := filepath.Join(build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(savedResult{st, name, seed, trace, len(o.problems) == 0, o.metrics}, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d-%d.json", name, seed, trace, time.Now().UnixNano()))
	return path, os.WriteFile(path, b, 0o644)
}

// compareResults prints, per workload and end-to-end metric, the median
// of each side and the change against BENCHMARK.json's bound. Results
// of the tuning seeds are pooled per workload; any other seed, such as
// the held-out one, gets rows of its own. It refuses when any two
// results carry different stamps, when a result failed its output
// checks, and when the two sides ran a workload on different seeds.
func compareResults(root string, tuning []int64, dirA, dirB string) (int, error) {
	if dirA == "" || dirB == "" {
		return 2, fmt.Errorf("-compare and -against are both required")
	}
	a, err := loadResults(dirA)
	if err != nil {
		return 2, err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return 2, err
	}
	if len(a) == 0 || len(b) == 0 {
		return 2, fmt.Errorf("no saved results in %s or %s", dirA, dirB)
	}
	ref := a[0].Stamp
	for _, r := range append(append([]savedResult{}, a...), b...) {
		if r.Stamp != ref {
			return 2, fmt.Errorf("refusing to compare: stamps differ (%+v vs %+v)", ref, r.Stamp)
		}
		if !r.Correct {
			return 2, fmt.Errorf("refusing to compare: %s seed %d trace %d failed its output checks", r.Workload, r.Seed, r.Trace)
		}
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	if raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil {
		var bm struct {
			EndToEnd []struct {
				Name   string  `json:"name"`
				Better string  `json:"better"`
				Bound  float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(raw, &bm); err == nil {
			for _, m := range bm.EndToEnd {
				bounds[m.Name], better[m.Name] = m.Bound, m.Better
			}
		}
	}
	// group keys untraced results by workload, with the seed appended
	// for seeds outside the tuning set, and lists each group's seeds.
	group := func(rs []savedResult) (map[string]map[string][]float64, map[string][]int64) {
		g, seeds := map[string]map[string][]float64{}, map[string][]int64{}
		for _, r := range rs {
			if r.Trace != 0 {
				continue
			}
			key := r.Workload
			if !slices.Contains(tuning, r.Seed) {
				key = fmt.Sprintf("%s@%d", r.Workload, r.Seed)
			}
			if g[key] == nil {
				g[key] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				g[key][k] = append(g[key][k], v)
			}
			seeds[key] = append(seeds[key], r.Seed)
		}
		for _, s := range seeds {
			slices.Sort(s)
		}
		return g, seeds
	}
	ga, seedsA := group(a)
	gb, seedsB := group(b)
	var names []string
	for w := range ga {
		names = append(names, w)
	}
	for w := range gb {
		if ga[w] == nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		if !slices.Equal(seedsA[w], seedsB[w]) {
			return 2, fmt.Errorf("refusing to compare %s: seeds %v vs %v", w, seedsA[w], seedsB[w])
		}
	}
	worse := false
	for _, w := range names {
		for _, d := range endToEnd {
			va, vb := ga[w][d.name], gb[w][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
			change := (mb - ma) / ma
			if better[d.name] == "higher" {
				change = -change
			}
			verdict := "ok"
			if bound, ok := bounds[d.name]; ok && change > bound {
				verdict, worse = "WORSE", true
			}
			fmt.Printf("%-14s %-16s %12.4f -> %12.4f %-6s (n=%d/%d, worse by %+.1f%%) %s\n",
				w, d.name, ma, mb, d.unit, len(va), len(vb), 100*change, verdict)
		}
	}
	if worse {
		return 1, nil
	}
	return 0, nil
}

func loadResults(dir string) ([]savedResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []savedResult
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r savedResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}
