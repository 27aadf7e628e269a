// Command experiments regenerates the paper's tables and figures as
// text tables.
//
// Usage:
//
//	experiments -run all                    # everything, paper-scale
//	experiments -run fig4a,fig4b            # selected artifacts
//	experiments -run fig5 -quick            # reduced sizes for a fast look
//
// Artifacts: table1 table2 table3 fig4a fig4b fig4c fig4d fig5a fig5b
// fig5c fig5d fig6a fig6b (fig4a/fig4b share one run, as do the fig5
// variants).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// writeMetrics dumps the sweep's final counters in Prometheus text
// format.
func writeMetrics(path string, m *obs.Metrics) error {
	m.SampleHeap()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, core.ErrCanceled) ||
			errors.Is(err, core.ErrDeadlineExceeded) ||
			errors.Is(err, core.ErrLimitExceeded) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runList = fs.String("run", "all", "comma-separated artifact list or 'all'")
		quick   = fs.Bool("quick", false, "reduced data sizes for a fast run")
		seed    = fs.Int64("seed", 1, "generation seed")
		format  = fs.String("format", "text", "output format: text | markdown")
		timeout = fs.Duration("timeout", 0, "abort the whole artifact run after this duration (0 = unlimited)")
		depth   = fs.Int("max-depth", 0, "per-run document depth ceiling (0 = unlimited)")
		nodes   = fs.Int("max-nodes", 0, "per-run document node ceiling (0 = unlimited)")
		cmps    = fs.Int("max-comparisons", 0, "per-run window comparison ceiling (0 = unlimited)")
		trace   = fs.String("trace", "", "stream a JSONL span trace of every detection run to this file")
		metrics = fs.String("metrics", "", "write the sweep's combined counters in Prometheus text format to this file")
		workers = fs.Int("pair-workers", 0, "window-sweep comparison goroutines per pass (-1 = all cores, 0 = sequential, the paper's timing setup); results are identical")
		cache   = fs.Bool("sim-cache", false, "memoize similarity computations per candidate (identical results, less CPU)")
		spill   = fs.Int("spill-rows", 0, "external-sort candidates with more rows than this to disk (0 = always in memory); results are identical")
		spillD  = fs.String("spill-dir", "", "directory for spill run files (default: a temp dir per run)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// One envelope for every detection run: ^C and -timeout abort the
	// sweep with a typed cause (exit code 3) rather than mid-table junk.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	env := experiments.RunEnv{
		Ctx:                ctx,
		Limits:             core.Limits{MaxDepth: *depth, MaxNodes: *nodes, MaxComparisons: *cmps},
		PairWorkers:        *workers,
		SimCache:           *cache,
		SpillThresholdRows: *spill,
		SpillDir:           *spillD,
	}
	if *trace != "" || *metrics != "" {
		var sinks []obs.Sink
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return err
			}
			defer f.Close()
			jl := obs.NewJSONL(f)
			defer jl.Flush()
			sinks = append(sinks, jl)
		}
		env.Observer = obs.New(sinks...)
		if *metrics != "" {
			defer func() {
				if err := writeMetrics(*metrics, env.Observer.Metrics()); err != nil {
					fmt.Fprintln(os.Stderr, "experiments: -metrics:", err)
				}
			}()
		}
	}
	var render func(experiments.Table) string
	switch *format {
	case "text":
		render = experiments.Table.String
	case "markdown":
		render = experiments.Table.Markdown
	default:
		return fmt.Errorf("unknown format %q (want text or markdown)", *format)
	}
	want := map[string]bool{}
	for _, a := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(strings.ToLower(a))] = true
	}
	all := want["all"]
	sel := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	if sel("table1") {
		fmt.Println("== Table 1: movie configuration relations ==")
		for _, t := range experiments.Table1() {
			fmt.Println(render(t))
		}
	}
	if sel("table2") {
		fmt.Println("== Table 2: temporary relations (worked example) ==")
		t, err := experiments.Table2()
		if err != nil {
			return err
		}
		fmt.Println(render(t))
	}
	if sel("table3") {
		fmt.Println("== Table 3: data set configurations ==")
		for _, t := range experiments.Table3() {
			fmt.Println(render(t))
		}
	}

	if sel("fig4a", "fig4b") {
		opts := experiments.Set1MoviesOptions{Seed: *seed, Env: env}
		if *quick {
			opts.Movies = 500
			opts.Windows = []int{2, 4, 8, 12}
		} else {
			opts.Movies = 5000
		}
		fmt.Printf("== Experiment set 1, Data set 1 (%d movies) ==\n", opts.Movies)
		r, err := experiments.ExpSet1Movies(opts)
		if err != nil {
			return err
		}
		fmt.Printf("planted duplicates: %d; all-pairs P=%.3f R=%.3f\n\n",
			r.PlantedDuplicates, r.AllPairsPrecision, r.AllPairsRecall)
		if sel("fig4a") {
			fmt.Println(render(r.RecallTable()))
		}
		if sel("fig4b") {
			fmt.Println(render(r.PrecisionTable()))
			fmt.Println(render(r.CostTable()))
		}
	}
	if sel("fig4c") {
		opts := experiments.Set1CDsOptions{Seed: *seed, Env: env}
		if *quick {
			opts.Discs = 200
			opts.Windows = []int{2, 4, 8, 12}
		}
		fmt.Println("== Experiment set 1, Data set 2 (CDs) ==")
		r, err := experiments.ExpSet1CDs(opts)
		if err != nil {
			return err
		}
		fmt.Println(render(r.FMeasureTable()))
	}
	if sel("fig4d") {
		opts := experiments.Set1LargeOptions{Seed: *seed, Env: env}
		if *quick {
			opts.Discs = 2000
			opts.Windows = []int{2, 5}
		}
		discs := opts.Discs
		if discs == 0 {
			discs = 10000
		}
		fmt.Printf("== Experiment set 1, Data set 3 (%d discs) ==\n", discs)
		r, err := experiments.ExpSet1Large(opts)
		if err != nil {
			return err
		}
		fmt.Println(render(r.PrecisionTable()))
		fmt.Println(render(r.DuplicatesTable()))
		fmt.Println(render(r.BreakdownTable("SP key1")))
		fmt.Println(render(r.BreakdownTable("MP")))
	}
	if sel("fig5", "fig5a", "fig5b", "fig5c", "fig5d") {
		opts := experiments.Set2Options{Seed: *seed, Env: env}
		if *quick {
			opts.Sizes = []int{500, 1000, 2000}
		} else {
			opts.Sizes = []int{1000, 2000, 5000, 10000, 20000}
		}
		fmt.Println("== Experiment set 2: scalability ==")
		r, err := experiments.ExpSet2Scalability(opts)
		if err != nil {
			return err
		}
		if sel("fig5", "fig5a") {
			fmt.Println(render(r.VariantTable("clean")))
		}
		if sel("fig5", "fig5b") {
			fmt.Println(render(r.VariantTable("few duplicates")))
		}
		if sel("fig5", "fig5c") {
			fmt.Println(render(r.VariantTable("many duplicates")))
		}
		if sel("fig5", "fig5d") {
			fmt.Println(render(r.OverheadTable()))
		}
	}
	if sel("ablations") {
		opts := experiments.AblationOptions{Seed: *seed, Env: env}
		if *quick {
			opts.Movies = 300
		} else {
			opts.Movies = 2000
		}
		fmt.Println("== Ablations (filter, adaptive window, DE-SNM, all-pairs) ==")
		r, err := experiments.ExpAblations(opts)
		if err != nil {
			return err
		}
		fmt.Println(render(r.Table()))
	}
	if sel("fig6a", "fig6b") {
		opts := experiments.Set3Options{Seed: *seed, Env: env}
		if *quick {
			opts.Discs = 250
		}
		fmt.Println("== Experiment set 3: threshold impact ==")
		r, err := experiments.ExpSet3Thresholds(opts)
		if err != nil {
			return err
		}
		if sel("fig6a") {
			fmt.Println(render(r.ODTable()))
		}
		if sel("fig6b") {
			fmt.Println(render(r.DescTable()))
		}
		fmt.Printf("best f-measure: OD-only %.3f (threshold %.2f), with descendants %.3f (threshold %.2f)\n",
			r.BestODOnlyF, r.BestODOnlyThreshold(), r.BestDescF, r.BestDescThreshold())
	}
	return nil
}
