// Command sxnm deduplicates an XML document with the Sorted XML
// Neighborhood Method.
//
// Usage:
//
//	sxnm -config config.xml -input data.xml [-output clean.xml] [-clusters] [-stats]
//
// The configuration file defines candidates, object descriptions, and
// keys (see the package documentation of repro for the format). With
// -clusters the detected duplicate clusters are printed per candidate;
// with -output a de-duplicated copy of the input is written.
//
// A run builds its GK rows straight from the input's tokens, without
// parsing it into a tree, unless an output needs the document:
// -output, -clusters and -clusters-csv parse it first. -stream refuses
// those three outputs. -gk-out writes the run's GK relations, -gk-in
// runs detection over saved ones.
//
// Operational limits: -timeout bounds the wall clock, -max-depth and
// -max-nodes reject oversized documents at parse time, and
// -max-comparisons caps the sliding-window work. An interrupted run
// (limit breach, timeout, SIGINT, or SIGTERM) reports the candidates
// that finished and exits with code 3 instead of 1.
//
// With -checkpoint DIR the run persists its progress to DIR
// crash-safely; rerunning the same command after an interruption or a
// crash resumes from the last durable state instead of starting over:
// the rerun scans the input's tokens again to rebuild its GK rows and
// skips the detection work already done. A checkpoint recorded for a
// different config or input is refused. A checkpointed run reads
// tokens too; with -output, -clusters or -clusters-csv it parses the
// input for those exports after the run completes, so that one
// combination reads the input twice. -gk-in cannot be checkpointed:
// GK relations carry no document to bind the checkpoint to.
//
// Performance: -pair-workers N parallelizes the window sweep inside
// each key pass (default: all cores; 0 restores the single-threaded
// sweep) and -sim-cache memoizes similarity computations per
// candidate (-sim-cache-size bounds it). Both are answer-preserving:
// clusters, statistics, checkpoints, and reports are byte-identical
// to the sequential, uncached run.
//
// Memory: -spill-rows N external-sorts each key pass of any candidate
// with more than N GK rows through checksummed run files on disk (in
// -spill-dir, or a temp dir) instead of sorting in memory. Each pass
// removes its run files when it ends. This trims the pass sort's
// memory, not the GK tables, which key generation still builds whole,
// and spilled runs are slower. The spill path is answer-preserving
// too.
//
// Observability: -trace FILE streams a JSONL span trace of every
// phase (-trace-max-bytes/-trace-keep add size-capped rotation for
// long runs), -metrics FILE dumps the final counters in Prometheus text
// format, -report FILE writes a machine-readable run report
// (report.json) with per-candidate per-pass statistics, -progress
// prints a live progress line with ETA to stderr (redrawn in place on
// a terminal, appended at a low rate otherwise), and -pprof ADDR
// serves net/http/pprof (plus /debug/vars with live sxnm counters)
// for the run's duration. All observability outputs are also written
// for interrupted runs, so a cut-short job still leaves its trace and
// report behind. Pass "-" as FILE to write to stdout (stderr for
// -trace).
//
// Exit codes: 0 = success, 1 = error (bad flags, unreadable input,
// invalid config, mismatched checkpoint), 3 = interrupted (partial
// results reported; resumable when -checkpoint is set).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "net/http/pprof"

	sxnm "repro"
	"repro/internal/core"
	"repro/internal/xmltree"
)

func main() {
	os.Exit(reportErr(os.Stderr, run(os.Args[1:])))
}

// reportErr prints a failed run's error line to w and returns the exit
// status: 0 on success, 3 for an interrupted run, 1 otherwise.
func reportErr(w io.Writer, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(w, errorLine(err))
	if errors.Is(err, sxnm.ErrCanceled) ||
		errors.Is(err, sxnm.ErrDeadlineExceeded) ||
		errors.Is(err, sxnm.ErrLimitExceeded) {
		return 3
	}
	return 1
}

// errorLine renders err with the "sxnm:" prefix exactly once: errors
// from the sxnm facade already carry it.
func errorLine(err error) string {
	if msg := err.Error(); strings.HasPrefix(msg, "sxnm: ") {
		return msg
	}
	return "sxnm: " + err.Error()
}

func run(args []string) error {
	fs := flag.NewFlagSet("sxnm", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "SXNM configuration XML (required)")
		inputPath  = fs.String("input", "", "XML document to deduplicate (required)")
		outputPath = fs.String("output", "", "write a de-duplicated copy here")
		clusters   = fs.Bool("clusters", false, "print duplicate clusters per candidate")
		stats      = fs.Bool("stats", false, "print phase timings and comparison counts")
		csvPath    = fs.String("clusters-csv", "", "write duplicate groups as CSV here")
		xmlPath    = fs.String("clusters-xml", "", "write the full cluster sets as XML here")
		stream     = fs.Bool("stream", false, "refuse the outputs that need the parsed document (-output, -clusters, -clusters-csv); runs without them stream anyway")
		gkOut      = fs.String("gk-out", "", "write the run's GK relations here (reload them with -gk-in)")
		gkIn       = fs.String("gk-in", "", "run detection over previously saved GK relations instead of -input")
		ckptDir    = fs.String("checkpoint", "", "persist progress to this directory and auto-resume from it")
		timeout    = fs.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = unlimited)")
		maxDepth   = fs.Int("max-depth", 0, "reject documents nested deeper than this many elements (0 = unlimited)")
		maxNodes   = fs.Int("max-nodes", 0, "reject documents with more than this many nodes (0 = unlimited)")
		maxCmp     = fs.Int("max-comparisons", 0, "stop after this many window comparisons (0 = unlimited)")
		tracePath  = fs.String("trace", "", "stream a JSONL span trace of every phase to this file (\"-\" = stderr)")
		traceMax   = fs.Int64("trace-max-bytes", 0, "rotate the -trace file when it would exceed this size (0 = never rotate)")
		traceKeep  = fs.Int("trace-keep", 3, "rotated -trace segments to keep (file.1 … file.N; 0 = discard on rotate)")
		metricsOut = fs.String("metrics", "", "write the final counters in Prometheus text format to this file (\"-\" = stdout)")
		reportOut  = fs.String("report", "", "write a machine-readable run report (JSON) to this file (\"-\" = stdout)")
		progress   = fs.Bool("progress", false, "print live progress with ETA to stderr")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof and /debug/vars on this address for the run's duration")
		useFilter  = fs.Bool("filter", true, "threshold-aware comparison fast path: sketch bounds + banded edit distance skip hopeless pairs (identical clusters; skipped pairs count as filtered, not compared)")
		pairWork   = fs.Int("pair-workers", -1, "window-sweep comparison goroutines per pass (-1 = all cores, 0 = sequential); results are identical either way")
		simCache   = fs.Bool("sim-cache", false, "memoize similarity computations per candidate (identical results; helps on repetitive values and multi-key configs)")
		simCacheN  = fs.Int("sim-cache-size", 0, "similarity cache capacity per candidate (0 = default)")
		spillRows  = fs.Int("spill-rows", 0, "external-sort the key passes of candidates with more GK rows than this (0 = always in memory); results are identical, and the GK tables stay in memory either way")
		spillDir   = fs.String("spill-dir", "", "directory for the spill run files of the pass in flight; any run file already there is deleted (default: a temp dir, removed afterwards)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" || (*inputPath == "" && *gkIn == "") {
		fs.Usage()
		return fmt.Errorf("-config and one of -input or -gk-in are required")
	}
	lim := sxnm.Limits{
		Timeout:        *timeout,
		MaxDepth:       *maxDepth,
		MaxNodes:       *maxNodes,
		MaxComparisons: *maxCmp,
	}

	cfg, err := sxnm.LoadConfigFile(*configPath)
	if err != nil {
		return err
	}
	o, err := setupObservability(obsFlags{
		trace:         *tracePath,
		traceMaxBytes: *traceMax,
		traceKeep:     *traceKeep,
		metrics:       *metricsOut,
		report:        *reportOut,
		progress:      *progress,
		pprof:         *pprofAddr,
		input:         firstNonEmpty(*inputPath, *gkIn),
	})
	if err != nil {
		return err
	}
	defer o.close()
	det, err := sxnm.NewWithOptions(cfg, sxnm.Options{
		Limits:             lim,
		Observer:           o.ob,
		UseFilter:          *useFilter,
		PairWorkers:        *pairWork,
		SimCache:           *simCache,
		SimCacheSize:       *simCacheN,
		SpillThresholdRows: *spillRows,
		SpillDir:           *spillDir,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var doc *sxnm.Document
	var docFP string
	var res *sxnm.Result
	var runErr error
	if *ckptDir != "" && *gkIn != "" {
		// GK relations carry no document fingerprint to bind the
		// checkpoint to.
		return fmt.Errorf("-checkpoint cannot be combined with -gk-in")
	}
	// Only these outputs read the document itself; every other run
	// builds its GK rows straight from the input's tokens.
	needDoc := *outputPath != "" || *clusters || *csvPath != ""
	o.startProgress()
	switch {
	case *gkIn != "":
		if *stream || *outputPath != "" || *clusters || *csvPath != "" || *gkOut != "" {
			return fmt.Errorf("-gk-in supports only the summary, -stats, and -clusters-xml outputs")
		}
		f, err := os.Open(*gkIn)
		if err != nil {
			return err
		}
		defer f.Close()
		res, runErr = det.RunFromGKContext(ctx, f)
	case needDoc && *stream:
		return fmt.Errorf("-stream refuses -output, -clusters and -clusters-csv: they need the parsed document")
	case *ckptDir != "":
		f, err := os.Open(*inputPath)
		if err != nil {
			return err
		}
		defer f.Close()
		res, runErr = det.RunCheckpointedContext(ctx, f, *ckptDir)
	case needDoc:
		sp := o.ob.StartSpan("parse")
		doc, err = xmltree.ParseFileWithLimits(*inputPath, lim)
		sp.End()
		if err != nil {
			return err
		}
		res, runErr = det.RunContext(ctx, doc)
	case *reportOut != "":
		res, docFP, runErr = det.RunFileFingerprint(ctx, *inputPath)
	default:
		res, runErr = det.RunFileContext(ctx, *inputPath)
	}
	o.stopProgress()
	// Observability outputs are written for interrupted runs too: a
	// cut-short job still leaves its trace, metrics, and report behind.
	// A run over the tokens leaves its fingerprint on its parse span.
	if doc != nil && *reportOut != "" {
		if docFP, err = sxnm.DocumentFingerprint(doc); err != nil {
			docFP = ""
		}
	}
	if oerr := o.finish(cfg, docFP); oerr != nil {
		if runErr == nil {
			return oerr
		}
		fmt.Fprintln(os.Stderr, errorLine(oerr))
	}
	if runErr != nil {
		if res == nil || res.Incomplete == nil {
			return runErr
		}
		// Graceful degradation: report how far the run got, summarize
		// the candidates that completed, and exit with the interruption
		// status. Document-derived outputs are skipped — they would
		// silently reflect a partially deduplicated document.
		reportIncomplete(res)
		// A scan cut short never reached the checkpoint.
		if *ckptDir != "" && res.Incomplete.Phase != core.PhaseKeyGen {
			fmt.Fprintf(os.Stderr, "sxnm: progress saved; rerun the same command to resume from %s\n", *ckptDir)
		}
		for _, s := range sxnm.Summarize(res) {
			fmt.Printf("%s: %d elements, %d clusters, %d duplicate groups, %d duplicate pairs\n",
				s.Candidate, s.Elements, s.Clusters, s.NonSingleton, s.Pairs)
		}
		return runErr
	}
	if needDoc && doc == nil {
		// The checkpointed run read tokens; its exports need the tree.
		if doc, err = xmltree.ParseFileWithLimits(*inputPath, lim); err != nil {
			return err
		}
	}

	if *gkOut != "" {
		f, err := os.Create(*gkOut)
		if err != nil {
			return err
		}
		if err := core.WriteGK(f, &core.KeyGenResult{Tables: res.Tables}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote GK relations to %s\n", *gkOut)
	}

	for _, s := range sxnm.Summarize(res) {
		fmt.Printf("%s: %d elements, %d clusters, %d duplicate groups, %d duplicate pairs\n",
			s.Candidate, s.Elements, s.Clusters, s.NonSingleton, s.Pairs)
	}
	if *clusters {
		printClusters(doc, res)
	}
	if *stats {
		fmt.Printf("key generation:     %v\n", res.Stats.KeyGen)
		fmt.Printf("sliding window:     %v (elapsed, summed over candidates)\n", res.Stats.SlidingWindow)
		fmt.Printf("transitive closure: %v (elapsed, summed over candidates)\n", res.Stats.TransitiveClosure)
		fmt.Printf("duplicate detection (SW+TC, elapsed): %v\n", res.Stats.DuplicateDetection())
		fmt.Printf("duplicate detection (wall clock): %v\n", res.Stats.DetectionWall)
		fmt.Printf("comparisons: %d, duplicate pairs: %d\n",
			res.Stats.Comparisons, res.Stats.DuplicatePairs)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := sxnm.WriteClustersCSV(f, doc, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote duplicate groups to %s\n", *csvPath)
	}
	if *xmlPath != "" {
		f, err := os.Create(*xmlPath)
		if err != nil {
			return err
		}
		if err := sxnm.WriteClustersXML(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote cluster sets to %s\n", *xmlPath)
	}
	if *outputPath != "" {
		clean := sxnm.Deduplicate(doc, res)
		if err := clean.WriteFile(*outputPath, xmltree.WriteOptions{Indent: "  ", Header: true}); err != nil {
			return err
		}
		fmt.Printf("wrote de-duplicated document to %s\n", *outputPath)
	}
	return nil
}

// obsFlags carries the observability flag values into setupObservability.
type obsFlags struct {
	trace         string
	traceMaxBytes int64
	traceKeep     int
	metrics       string
	report        string
	progress      bool
	pprof         string
	input         string
}

// observability owns the run's observer and its output destinations.
// The zero value (no flag set) is fully inert: ob is nil, every method
// is a no-op, and the engine pays only a nil test.
type observability struct {
	ob       *sxnm.Observer
	col      *sxnm.Collector
	traceOut *sxnm.TraceJSONL
	traceRot *sxnm.RotatingTraceJSONL
	traceC   io.Closer
	prog     *sxnm.Progress
	metrics  string
	report   string
	input    string
}

// setupObservability builds the observer demanded by the flags: a
// JSONL sink for -trace, a Collector for -report, bare metrics for
// -metrics/-progress, and a pprof listener (with /debug/vars carrying
// the live counters) for -pprof.
func setupObservability(f obsFlags) (*observability, error) {
	o := &observability{metrics: f.metrics, report: f.report, input: f.input}
	if f.trace == "" && f.metrics == "" && f.report == "" && !f.progress && f.pprof == "" {
		return o, nil
	}
	var sinks []sxnm.TraceSink
	switch {
	case f.trace != "" && f.trace != "-" && f.traceMaxBytes > 0:
		// Size-capped rotation: the trace file is bounded at roughly
		// traceMaxBytes·(traceKeep+1) no matter how long the run is.
		rot, err := sxnm.NewRotatingTraceJSONL(f.trace, f.traceMaxBytes, f.traceKeep)
		if err != nil {
			return nil, err
		}
		o.traceRot = rot
		sinks = append(sinks, rot)
	case f.trace != "":
		w := io.Writer(os.Stderr)
		if f.trace != "-" {
			file, err := os.Create(f.trace)
			if err != nil {
				return nil, err
			}
			o.traceC = file
			w = file
		}
		o.traceOut = sxnm.NewTraceJSONL(w)
		sinks = append(sinks, o.traceOut)
	}
	if f.report != "" {
		o.col = sxnm.NewCollector()
		sinks = append(sinks, o.col)
	}
	o.ob = sxnm.NewObserver(sinks...)
	if f.progress {
		o.prog = sxnm.NewProgress(os.Stderr, o.ob.Metrics(), 0)
	}
	if f.pprof != "" {
		o.ob.Metrics().PublishExpvar("sxnm")
		ln, err := net.Listen("tcp", f.pprof)
		if err != nil {
			return nil, fmt.Errorf("-pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "sxnm: pprof on http://%s/debug/pprof/ (live counters at /debug/vars)\n", ln.Addr())
		go http.Serve(ln, nil)
	}
	return o, nil
}

func (o *observability) startProgress() {
	if o.prog != nil {
		o.prog.Start()
	}
}

func (o *observability) stopProgress() {
	if o.prog != nil {
		o.prog.Stop()
		o.prog = nil
	}
}

// finish flushes the trace and writes the -metrics and -report
// outputs. Called after the run regardless of how it ended.
func (o *observability) finish(cfg *sxnm.Config, docFP string) error {
	if o.ob == nil {
		return nil
	}
	o.ob.Metrics().SampleHeap()
	if o.traceOut != nil {
		if err := o.traceOut.Flush(); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	if o.traceRot != nil {
		if err := o.traceRot.Flush(); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	if o.metrics != "" {
		if err := writeTo(o.metrics, func(w io.Writer) error {
			return o.ob.Metrics().WritePrometheus(w)
		}); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
	}
	if o.report != "" {
		rep := o.col.Report(o.ob.Metrics())
		rep.GeneratedAt = time.Now().UTC()
		rep.Input = o.input
		if fp, err := sxnm.ConfigFingerprint(cfg); err == nil {
			rep.ConfigFingerprint = fp
		}
		if docFP != "" {
			rep.DocFingerprint = docFP
		}
		if err := writeTo(o.report, func(w io.Writer) error {
			return rep.WriteJSON(w)
		}); err != nil {
			return fmt.Errorf("-report: %w", err)
		}
	}
	return nil
}

// close releases the trace file; safe after finish and on early error
// returns.
func (o *observability) close() {
	o.stopProgress()
	if o.traceOut != nil {
		o.traceOut.Flush()
		o.traceOut = nil
	}
	if o.traceC != nil {
		o.traceC.Close()
		o.traceC = nil
	}
	if o.traceRot != nil {
		o.traceRot.Close()
		o.traceRot = nil
	}
}

// writeTo writes via fn to the named file, or to stdout for "-".
func writeTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// reportIncomplete describes an interrupted run on stderr: the phase
// and cause, plus which candidates finished and which did not.
func reportIncomplete(res *sxnm.Result) {
	inc := res.Incomplete
	fmt.Fprintf(os.Stderr, "sxnm: run interrupted during %s: %v\n", inc.Phase, inc.Cause)
	if len(inc.Completed) > 0 {
		fmt.Fprintf(os.Stderr, "sxnm: completed candidates: %s\n", strings.Join(inc.Completed, ", "))
	}
	if len(inc.Interrupted) > 0 {
		fmt.Fprintf(os.Stderr, "sxnm: interrupted candidates: %s\n", strings.Join(inc.Interrupted, ", "))
	}
}

// printClusters shows each duplicate group with a short description of
// its members.
func printClusters(doc *sxnm.Document, res *sxnm.Result) {
	idx := doc.IndexByID()
	for _, s := range sxnm.Summarize(res) {
		cs := res.Clusters[s.Candidate]
		groups := cs.NonSingletons()
		if len(groups) == 0 {
			continue
		}
		fmt.Printf("\n%s duplicate groups:\n", s.Candidate)
		for _, c := range groups {
			fmt.Printf("  cluster %d:\n", c.ID)
			for _, eid := range c.Members {
				desc := ""
				if n := idx[eid]; n != nil {
					desc = snippet(n.DeepText(), 60)
				}
				fmt.Printf("    #%d %s\n", eid, desc)
			}
		}
	}
}

func snippet(s string, max int) string {
	runes := []rune(s)
	if len(runes) <= max {
		return s
	}
	return string(runes[:max]) + "..."
}
