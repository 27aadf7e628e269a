package sxnm

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Bench-regression guard for the window-sweep hot path and the layer
// ledger (XML scan, key generation, detection, cluster export). Three modes, all off by default so
// `go test ./...` stays fast and deterministic:
//
//	SXNM_BENCH_RECORD=1  go test -run TestBenchGuard .   # (make bench-baseline)
//	    measures every windowSweepCases entry and writes the ns/op map
//	    under the "bench_ns_per_op" key of BENCH_sxnm.json, and the
//	    layer ledger (parse, DOM keygen, stream keygen and detect on
//	    the movies500 and cds150 corpora, the cluster export on cds150:
//	    ns/op, B/op, allocs/op) under
//	    "bench_layers", and stamps the host under "bench_machine",
//	    preserving the rest of the committed run report.
//	SXNM_BENCH_CHECK=1   go test -run TestBenchGuard .   # (make bench-check)
//	    refuses to compare when the baseline's "bench_machine" stamp is
//	    missing or names another host (ns/op only means something on the
//	    hardware that recorded it). Otherwise it re-measures and fails
//	    if any case regresses more than 15%
//	    against the recorded baseline, or any ledger case allocates
//	    more than 1% over its ledger entry (TestFrontEndAllocs checks
//	    the allocation counts on every run). On machines with ≥4 usable
//	    CPUs it additionally requires the 4-worker sweep to beat the
//	    sequential one by ≥1.5× — on fewer cores that bar is physically
//	    unreachable, so only the per-case regression check applies.
//	SXNM_BENCH_MERGE=report.json go test -run TestBenchGuard .   # (make bench)
//	    replaces the run-report portion of BENCH_sxnm.json with the
//	    given freshly generated report while PRESERVING the committed
//	    bench_ns_per_op baselines, bench_layers ledger and bench_machine
//	    stamp. `make bench` regenerates the report through this mode;
//	    without it, rewriting the report wholesale silently destroyed
//	    the ns/op baselines.
const (
	benchBaselineFile = "BENCH_sxnm.json"
	benchNsKey        = "bench_ns_per_op"
	benchTolerance    = 0.15
	// The spilled cases are disk-bound, and filesystem latency jitters
	// far more run-to-run than the CPU-bound sweeps, so they get a
	// looser drift bar.
	benchSpillTolerance = 0.35
	benchMinSpeedup     = 1.5
	// benchLayersKey holds the layer ledger: ns/op, B/op and
	// allocs/op of every ledgerLayers × corpus case.
	benchLayersKey = "bench_layers"
	// benchMachineKey holds the stamp of the host the baselines were
	// recorded on.
	benchMachineKey = "bench_machine"
	// Allocation counts are deterministic, so the layer ledger gates
	// them almost exactly; the slack absorbs toolchain-level drift.
	benchAllocTolerance = 0.01
	// The threshold-aware filter is CPU-bound and deterministic, so it
	// gets a hard floor: the filtered sequential sweep must resolve the
	// same pair stream at least this much faster than the unfiltered one.
	benchFilterSpeedup = 2.0
)

// measureWindowSweep runs each sweep case — the worker/cache matrix
// plus the external-sort spill matrix — through testing.Benchmark
// (default 1s benchtime) and returns ns/op keyed by case name. Each
// case takes the best of two rounds: the sweep is deterministic CPU
// work, so the minimum is the measurement and the gap between rounds
// is scheduler noise — single samples on busy machines drift far more
// than the regression tolerance.
func measureWindowSweep() map[string]float64 {
	out := make(map[string]float64, len(windowSweepCases)+len(spillSweepCases))
	for round := 0; round < 2; round++ {
		cases := append([]struct {
			name string
			opts core.Options
		}{}, windowSweepCases...)
		cases = append(cases, spillSweepCases...)
		for _, c := range cases {
			opts := c.opts
			r := testing.Benchmark(func(b *testing.B) { benchWindowSweep(b, opts) })
			if ns := float64(r.NsPerOp()); round == 0 || ns < out[c.name] {
				out[c.name] = ns
			}
		}
	}
	return out
}

// layerStat is one layer ledger entry.
type layerStat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// measureLayers benchmarks every ledger case, keyed "layer/corpus";
// ns/op is the best of two rounds, as for the sweeps.
func measureLayers(t *testing.T) map[string]layerStat {
	out := map[string]layerStat{}
	corpora := ledgerCorpora(t)
	for round := 0; round < 2; round++ {
		forEachLedgerCase(corpora, func(key string, op func() error) {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := op(); err != nil {
						b.Fatal(err)
					}
				}
			})
			st := layerStat{NsPerOp: float64(r.NsPerOp()), BytesPerOp: float64(r.AllocedBytesPerOp()), AllocsPerOp: float64(r.AllocsPerOp())}
			if prev, ok := out[key]; ok && prev.NsPerOp < st.NsPerOp {
				st.NsPerOp = prev.NsPerOp
			}
			out[key] = st
		})
	}
	return out
}

// recordedLayers decodes the committed layer ledger.
func recordedLayers(report map[string]any) (map[string]layerStat, error) {
	raw, err := json.Marshal(report[benchLayersKey])
	if err != nil {
		return nil, err
	}
	var out map[string]layerStat
	err = json.Unmarshal(raw, &out)
	return out, err
}

// TestFrontEndAllocs gates the layer ledger's allocation counts on
// every test run: they are deterministic, so a parse, keygen, detect or
// export change that allocates more per document fails here, not only
// under `make bench-check`.
func TestFrontEndAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the ledger corpora")
	}
	raw, err := os.ReadFile(benchBaselineFile)
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	base, err := recordedLayers(report)
	if err != nil || len(base) == 0 {
		t.Fatalf("%s has no %q ledger (%v) — run `make bench-baseline`", benchBaselineFile, benchLayersKey, err)
	}
	forEachLedgerCase(ledgerCorpora(t), func(key string, op func() error) {
		if ledgerDetectSpilled && (strings.HasPrefix(key, "detect/") || strings.HasPrefix(key, "e2e/")) {
			t.Logf("%s: skipped, the smallspill tag runs Detect through the spill path", key)
			return
		}
		want, ok := base[key]
		if !ok {
			t.Errorf("ledger is missing %q — re-run `make bench-baseline`", key)
			return
		}
		got := testing.AllocsPerRun(2, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
		checkAllocs(t, key, got, want.AllocsPerOp)
	})
}

func checkAllocs(t *testing.T, key string, got, want float64) {
	t.Helper()
	if got > want*(1+benchAllocTolerance)+2 {
		t.Errorf("%s allocs/op regressed: %.0f vs ledger %.0f", key, got, want)
	}
}

func TestBenchGuard(t *testing.T) {
	record := os.Getenv("SXNM_BENCH_RECORD") == "1"
	check := os.Getenv("SXNM_BENCH_CHECK") == "1"
	merge := os.Getenv("SXNM_BENCH_MERGE")
	if !record && !check && merge == "" {
		t.Skip("set SXNM_BENCH_RECORD=1, SXNM_BENCH_CHECK=1, or SXNM_BENCH_MERGE=report.json (make bench-baseline / bench-check / bench)")
	}
	raw, err := os.ReadFile(benchBaselineFile)
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	// The baseline file is the committed run report; decode it loosely
	// so recording touches only the ns/op key.
	var report map[string]any
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("parse %s: %v", benchBaselineFile, err)
	}

	if merge != "" {
		// Swap in a fresh run report, carrying the committed ns/op
		// baselines over: report refreshes and perf baselines have
		// independent lifecycles, and `make bench` must never eat the
		// latter as a side effect of the former.
		fresh, err := os.ReadFile(merge)
		if err != nil {
			t.Fatalf("read fresh report: %v", err)
		}
		var next map[string]any
		if err := json.Unmarshal(fresh, &next); err != nil {
			t.Fatalf("parse %s: %v", merge, err)
		}
		for _, key := range []string{benchNsKey, benchLayersKey, benchMachineKey} {
			if v, ok := report[key]; ok {
				next[key] = v
			}
		}
		out, err := json.MarshalIndent(next, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("merged %s into %s, preserving %q", merge, benchBaselineFile, benchNsKey)
		return
	}
	if !record {
		if msg := machineMismatch(report[benchMachineKey], hostMachine()); msg != "" {
			t.Fatal(msg)
		}
	}
	measured := measureWindowSweep()
	for name, ns := range measured {
		t.Logf("%-16s %12.0f ns/op", name, ns)
	}
	layers := measureLayers(t)
	for name, st := range layers {
		t.Logf("%-24s %12.0f ns/op %10.0f B/op %8.0f allocs/op", name, st.NsPerOp, st.BytesPerOp, st.AllocsPerOp)
	}

	if record {
		report[benchNsKey] = measured
		report[benchLayersKey] = layers
		report[benchMachineKey] = hostMachine()
		out, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d window-sweep baselines into %s", len(measured), benchBaselineFile)
		return
	}

	base, ok := report[benchNsKey].(map[string]any)
	if !ok {
		t.Fatalf("%s has no %q key — run `make bench-baseline` first", benchBaselineFile, benchNsKey)
	}
	spilled := map[string]bool{}
	for _, c := range spillSweepCases {
		if c.opts.SpillThresholdRows > 0 {
			spilled[c.name] = true
		}
	}
	for name := range measured {
		want, ok := base[name].(float64)
		if !ok {
			t.Errorf("baseline is missing case %q — re-run `make bench-baseline`", name)
			continue
		}
		tol := benchTolerance
		if spilled[name] {
			tol = benchSpillTolerance
		}
		got := measured[name]
		if limit := want * (1 + tol); got > limit {
			t.Errorf("%s regressed: %.0f ns/op vs baseline %.0f (+%.0f%% > %.0f%% tolerance)",
				name, got, want, (got/want-1)*100, tol*100)
		}
	}
	baseLayers, err := recordedLayers(report)
	if err != nil || len(baseLayers) == 0 {
		t.Fatalf("%s has no %q ledger (%v) — run `make bench-baseline`", benchBaselineFile, benchLayersKey, err)
	}
	for name, got := range layers {
		want, ok := baseLayers[name]
		if !ok {
			t.Errorf("ledger is missing %q — re-run `make bench-baseline`", name)
			continue
		}
		if limit := want.NsPerOp * (1 + benchTolerance); got.NsPerOp > limit {
			t.Errorf("%s regressed: %.0f ns/op vs ledger %.0f (+%.0f%% > %.0f%% tolerance)",
				name, got.NsPerOp, want.NsPerOp, (got.NsPerOp/want.NsPerOp-1)*100, benchTolerance*100)
		}
		checkAllocs(t, name, got.AllocsPerOp, want.AllocsPerOp)
	}
	// The spill gate must be free when disabled: a run with
	// SpillThresholdRows=0 takes the exact in-memory path, so it may not
	// drift from the sequential sweep beyond tolerance.
	if off, seq := measured["spill-off"], measured["seq"]; off > seq*(1+benchTolerance) {
		t.Errorf("spill-off sweep %.0f ns/op is %.0f%% over the plain sequential %.0f",
			off, (off/seq-1)*100, seq)
	}
	if procs := runtime.GOMAXPROCS(0); procs >= 4 {
		speedup := measured["seq"] / measured["workers4"]
		if speedup < benchMinSpeedup {
			t.Errorf("4-worker sweep speedup %.2fx < %.1fx on %d CPUs", speedup, benchMinSpeedup, procs)
		} else {
			t.Logf("4-worker sweep speedup: %.2fx on %d CPUs", speedup, procs)
		}
	} else {
		t.Logf("skipping %.1fx speedup assertion: only %d usable CPU(s)", benchMinSpeedup, procs)
	}
	if speedup := measured["seq"] / measured["filtered"]; speedup < benchFilterSpeedup {
		t.Errorf("filtered sweep speedup %.2fx < %.1fx over the unfiltered sequential sweep",
			speedup, benchFilterSpeedup)
	} else {
		t.Logf("filtered sweep speedup: %.2fx", speedup)
	}
	checkFilterEffect(t, report)
}

// checkFilterEffect asserts the filter is live, not vestigial: a
// filters-on detection over the movie corpus must skip a positive
// fraction of attempted comparisons, and the committed run report —
// regenerated by `make bench`, which runs the CLI with its default
// -filter=true — must carry that rate.
func checkFilterEffect(t *testing.T, report map[string]any) {
	if rate, ok := report["filter_hit_rate"].(float64); !ok || rate <= 0 {
		t.Errorf("committed %s filter_hit_rate = %v, want > 0 — re-run `make bench`",
			benchBaselineFile, report["filter_hit_rate"])
	}
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DataSet1(5)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	kg, err := core.GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Detect(kg, cfg, core.Options{UseFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	attempted := res.Stats.Comparisons + res.Stats.FilteredOut
	if attempted == 0 || res.Stats.FilteredOut == 0 {
		t.Fatalf("filters-on movie run skipped nothing: comparisons=%d filtered=%d",
			res.Stats.Comparisons, res.Stats.FilteredOut)
	}
	t.Logf("movie-corpus filter hit rate: %.1f%% (%d of %d attempted)",
		100*float64(res.Stats.FilteredOut)/float64(attempted), res.Stats.FilteredOut, attempted)
}

// benchMachine identifies the host a baseline was recorded on.
type benchMachine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func (m benchMachine) String() string {
	return fmt.Sprintf("%s/%s, GOMAXPROCS=%d, %s", m.GOOS, m.GOARCH, m.GOMAXPROCS, m.CPUModel)
}

// hostMachine stamps the running host.
func hostMachine() benchMachine {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		model = parseCPUModel(string(raw))
	}
	return benchMachine{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: model}
}

// parseCPUModel returns the first "model name" of a /proc/cpuinfo
// listing, or "unknown" when there is none (some architectures omit it).
func parseCPUModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if v = strings.TrimSpace(v); ok && strings.TrimSpace(k) == "model name" && v != "" {
			return v
		}
	}
	return "unknown"
}

// machineMismatch compares a baseline's stamp, as decoded from
// BENCH_sxnm.json, with the host: "" when they match, otherwise the
// message bench-check fails with. A missing or unreadable stamp never
// matches.
func machineMismatch(recorded any, host benchMachine) string {
	from := "an unstamped host"
	if raw, err := json.Marshal(recorded); recorded != nil && err == nil {
		var m benchMachine
		if json.Unmarshal(raw, &m) == nil && m != (benchMachine{}) {
			if m == host {
				return ""
			}
			from = m.String()
		}
	}
	return fmt.Sprintf("baseline from %s, this host is %s; re-run make bench-baseline", from, host)
}

func TestBenchMachineStamp(t *testing.T) {
	host := benchMachine{GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, CPUModel: "Example CPU @ 2.00GHz"}
	// The stamp round-trips through the JSON baseline file.
	raw, err := json.Marshal(map[string]any{benchMachineKey: host})
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	if msg := machineMismatch(report[benchMachineKey], host); msg != "" {
		t.Errorf("same host reported a mismatch: %s", msg)
	}

	other := host
	other.GOMAXPROCS = 4
	for _, tc := range []struct {
		name     string
		recorded any
		from     string
	}{
		{"missing", nil, "an unstamped host"},
		{"malformed", "not a stamp", "an unstamped host"},
		{"empty", map[string]any{}, "an unstamped host"},
		{"other host", other, other.String()},
	} {
		msg := machineMismatch(tc.recorded, host)
		want := fmt.Sprintf("baseline from %s, this host is %s; re-run make bench-baseline", tc.from, host)
		if msg != want {
			t.Errorf("%s: got %q, want %q", tc.name, msg, want)
		}
	}

	for _, tc := range []struct{ cpuinfo, want string }{
		{"processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Example CPU @ 2.00GHz\n\nprocessor\t: 1\nmodel name\t: Example CPU @ 2.00GHz\n", "Example CPU @ 2.00GHz"},
		{"processor\t: 0\nBogoMIPS\t: 50.00\n", "unknown"},
		{"model name\t:\n", "unknown"},
		{"", "unknown"},
	} {
		if got := parseCPUModel(tc.cpuinfo); got != tc.want {
			t.Errorf("parseCPUModel(%q) = %q, want %q", tc.cpuinfo, got, tc.want)
		}
	}
}
