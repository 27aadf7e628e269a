package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Attribute keys used by the engine's spans and events. The Collector
// keys its report assembly off these; custom sinks may use them too.
const (
	AttrCandidate      = "candidate"
	AttrRows           = "rows"
	AttrWindow         = "window"
	AttrKeys           = "keys"
	AttrPass           = "pass"
	AttrWindowPairs    = "window_pairs"
	AttrComparisons    = "comparisons"
	AttrFilteredOut    = "filtered_out"
	AttrDuplicatePairs = "duplicate_pairs"
	AttrClusters       = "clusters"
	AttrNonSingleton   = "non_singleton"
	AttrSWNanos        = "sw_ns"
	AttrTCNanos        = "tc_ns"
	AttrHeapBytes      = "heap_bytes"
	AttrResumed        = "resumed"
	AttrResumedPairs   = "resumed_pairs"
	AttrCompleted      = "completed"
	AttrNextPass       = "next_pass"
	AttrInterrupted    = "interrupted"
	AttrKind           = "kind"
	AttrBytes          = "bytes"
	AttrPhase          = "phase"
	AttrCause          = "cause"
	AttrStream         = "stream"
	// AttrDocFingerprint on a parse span is the document fingerprint
	// hashed from the scanned tokens; it fills Report.DocFingerprint.
	AttrDocFingerprint = "doc_fingerprint"

	// Similarity memo counters, set on candidate spans when
	// Options.SimCache is enabled.
	AttrSimCacheHits      = "sim_cache_hits"
	AttrSimCacheMisses    = "sim_cache_misses"
	AttrSimCacheEvictions = "sim_cache_evictions"

	// External-sort spill attributes, set on SpanSpill spans.
	AttrSpillRuns  = "spill_runs"
	AttrSpillBytes = "spill_bytes"
)

// ReportSchema identifies the report.json layout version.
const ReportSchema = "sxnm/report/v1"

// PassReport is the per-key-pass slice of one candidate's work. The
// counters are deltas for that pass alone.
type PassReport struct {
	Pass           int     `json:"pass"`
	WindowPairs    int64   `json:"window_pairs"`
	Comparisons    int64   `json:"comparisons"`
	FilteredOut    int64   `json:"filtered_out"`
	DuplicatePairs int64   `json:"duplicate_pairs"`
	DurationMS     float64 `json:"duration_ms"`
	HeapInUse      int64   `json:"heap_in_use_bytes,omitempty"`
}

// CandidateReport aggregates one candidate's detection.
type CandidateReport struct {
	Name    string `json:"name"`
	Rows    int    `json:"rows"`
	Window  int    `json:"window,omitempty"`
	Keys    int    `json:"keys,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
	// ResumedFromPass is the key pass a mid-candidate resume restarted
	// at (0 = started fresh or adopted whole).
	ResumedFromPass     int          `json:"resumed_from_pass,omitempty"`
	Interrupted         bool         `json:"interrupted,omitempty"`
	WindowPairs         int64        `json:"window_pairs"`
	Comparisons         int64        `json:"comparisons"`
	FilteredOut         int64        `json:"filtered_out"`
	DuplicatePairs      int64        `json:"duplicate_pairs"`
	Clusters            int64        `json:"clusters"`
	NonSingleton        int64        `json:"non_singleton"`
	SimCacheHits        int64        `json:"sim_cache_hits,omitempty"`
	SimCacheMisses      int64        `json:"sim_cache_misses,omitempty"`
	SimCacheEvictions   int64        `json:"sim_cache_evictions,omitempty"`
	SlidingWindowMS     float64      `json:"sliding_window_ms"`
	TransitiveClosureMS float64      `json:"transitive_closure_ms"`
	WallMS              float64      `json:"wall_ms"`
	Passes              []PassReport `json:"passes,omitempty"`
}

// CheckpointReport summarizes durable-progress I/O.
type CheckpointReport struct {
	Writes int64 `json:"writes"`
	Bytes  int64 `json:"bytes"`
}

// ResumeReport records provenance of recovered work, so a report from
// a resumed run is distinguishable from a cold one.
type ResumeReport struct {
	CompletedCandidates int64 `json:"completed_candidates"`
	SeededPairs         int64 `json:"seeded_pairs"`
	// NextPass maps candidates that resumed mid-detection to the key
	// pass they restarted at.
	NextPass map[string]int `json:"next_pass,omitempty"`
}

// SpillReport summarizes the external-sort spill path's disk I/O;
// present only when a run actually spilled.
type SpillReport struct {
	Runs         int64   `json:"runs"`
	BytesWritten int64   `json:"bytes_written"`
	BytesRead    int64   `json:"bytes_read"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// InterruptReport records a run cut short.
type InterruptReport struct {
	Phase string `json:"phase"`
	Cause string `json:"cause"`
}

// Totals are the run-wide counters; on a complete run they match
// core's Result.Stats exactly (interrupted candidates, whose partial
// work core discards from Stats, are excluded here too).
type Totals struct {
	WindowPairs    int64 `json:"window_pairs"`
	Comparisons    int64 `json:"comparisons"`
	FilteredOut    int64 `json:"filtered_out"`
	DuplicatePairs int64 `json:"duplicate_pairs"`
	Clusters       int64 `json:"clusters"`
	NonSingleton   int64 `json:"non_singleton"`
}

// Report is the machine-readable run summary emitted as report.json
// (and committed as BENCH_*.json baselines). Identification fields
// (fingerprints, input, args) are filled by the caller, except a
// document fingerprint a parse span carries; everything else comes
// from the Collector and Metrics.
type Report struct {
	Schema            string    `json:"schema"`
	GeneratedAt       time.Time `json:"generated_at"`
	ConfigFingerprint string    `json:"config_fingerprint,omitempty"`
	DocFingerprint    string    `json:"doc_fingerprint,omitempty"`
	Input             string    `json:"input,omitempty"`
	Label             string    `json:"label,omitempty"`

	ParseMS      float64 `json:"parse_ms,omitempty"`
	KeyGenMS     float64 `json:"key_gen_ms"`
	DetectWallMS float64 `json:"detect_wall_ms"`
	// The two "_cpu" sums are the candidates' elapsed phase times added
	// up, as in core.Stats; the names keep the report format stable.
	SlidingWindowCPUMS     float64 `json:"sliding_window_cpu_ms"`
	TransitiveClosureCPUMS float64 `json:"transitive_closure_cpu_ms"`

	Totals Totals `json:"totals"`
	// FilterHitRate is FilteredOut / (Comparisons + FilteredOut) over
	// Totals — the same attempted-comparison denominator the metrics
	// snapshot and Stats use (DESIGN.md §11), so report and engine
	// Stats agree exactly.
	FilterHitRate float64 `json:"filter_hit_rate"`
	// SimCacheHitRate is the fraction of memo lookups served from
	// memory when Options.SimCache is on (0 when the cache is off —
	// no lookups happen at all).
	SimCacheHitRate float64 `json:"sim_cache_hit_rate"`
	PeakHeapBytes   int64   `json:"peak_heap_bytes,omitempty"`

	Resume      *ResumeReport     `json:"resume,omitempty"`
	Checkpoint  *CheckpointReport `json:"checkpoint,omitempty"`
	Spill       *SpillReport      `json:"spill,omitempty"`
	Interrupted *InterruptReport  `json:"interrupted,omitempty"`

	// PhaseLatency digests the duration distribution of every span
	// kind the run emitted (p50/p90/p99), keyed by span name — the
	// per-phase latency view the averages above cannot give.
	PhaseLatency map[string]LatencySummary `json:"phase_latency,omitempty"`

	Candidates []CandidateReport `json:"candidates"`
	Metrics    Snapshot          `json:"metrics"`
}

// WriteJSON writes the report, indented, to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Collector is a Sink that assembles a Report from the engine's
// well-known spans and events. Attach it alongside (or instead of)
// trace sinks; after the run, Report() returns the assembled summary.
// Safe for concurrent emission.
type Collector struct {
	mu          sync.Mutex
	parse       time.Duration
	docFP       string
	keyGen      time.Duration
	detectWall  time.Duration
	candidates  map[string]*CandidateReport
	order       []string // emission order of candidate spans
	passes      map[string][]PassReport
	checkpoint  CheckpointReport
	resume      *ResumeReport
	interrupted *InterruptReport
	phases      *PhaseHistograms
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		candidates: make(map[string]*CandidateReport),
		passes:     make(map[string][]PassReport),
		phases:     NewPhaseHistograms(),
	}
}

// Emit implements Sink.
func (c *Collector) Emit(r Record) {
	c.phases.Emit(r)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch r.Name {
	case SpanParse:
		c.parse += r.Dur
		if fp := r.AttrString(AttrDocFingerprint); fp != "" {
			c.docFP = fp
		}
	case SpanKeyGen:
		c.keyGen += r.Dur
	case SpanDetect:
		c.detectWall += r.Dur
	case SpanPass:
		name := r.AttrString(AttrCandidate)
		c.passes[name] = append(c.passes[name], PassReport{
			Pass:           int(r.AttrInt(AttrPass)),
			WindowPairs:    r.AttrInt(AttrWindowPairs),
			Comparisons:    r.AttrInt(AttrComparisons),
			FilteredOut:    r.AttrInt(AttrFilteredOut),
			DuplicatePairs: r.AttrInt(AttrDuplicatePairs),
			DurationMS:     ms(r.Dur),
			HeapInUse:      r.AttrInt(AttrHeapBytes),
		})
	case SpanCandidate:
		name := r.AttrString(AttrCandidate)
		cr := &CandidateReport{
			Name:                name,
			Rows:                int(r.AttrInt(AttrRows)),
			Window:              int(r.AttrInt(AttrWindow)),
			Keys:                int(r.AttrInt(AttrKeys)),
			Resumed:             r.AttrBool(AttrResumed),
			ResumedFromPass:     int(r.AttrInt(AttrNextPass)),
			Interrupted:         r.AttrBool(AttrInterrupted),
			WindowPairs:         r.AttrInt(AttrWindowPairs),
			Comparisons:         r.AttrInt(AttrComparisons),
			FilteredOut:         r.AttrInt(AttrFilteredOut),
			DuplicatePairs:      r.AttrInt(AttrDuplicatePairs),
			Clusters:            r.AttrInt(AttrClusters),
			NonSingleton:        r.AttrInt(AttrNonSingleton),
			SlidingWindowMS:     ms(time.Duration(r.AttrInt(AttrSWNanos))),
			TransitiveClosureMS: ms(time.Duration(r.AttrInt(AttrTCNanos))),
			WallMS:              ms(r.Dur),
			SimCacheHits:        r.AttrInt(AttrSimCacheHits),
			SimCacheMisses:      r.AttrInt(AttrSimCacheMisses),
			SimCacheEvictions:   r.AttrInt(AttrSimCacheEvictions),
		}
		if _, seen := c.candidates[name]; !seen {
			c.order = append(c.order, name)
		}
		c.candidates[name] = cr
	case SpanCheckpoint:
		c.checkpoint.Writes++
		c.checkpoint.Bytes += r.AttrInt(AttrBytes)
	case EventResume:
		c.resume = &ResumeReport{
			CompletedCandidates: r.AttrInt(AttrCompleted),
			SeededPairs:         r.AttrInt(AttrResumedPairs),
		}
	case EventInterrupted:
		c.interrupted = &InterruptReport{
			Phase: r.AttrString(AttrPhase),
			Cause: r.AttrString(AttrCause),
		}
	}
}

// Report assembles the collected spans into a Report. Pass the run's
// Metrics to include the final snapshot and peak heap; nil is fine.
func (c *Collector) Report(m *Metrics) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &Report{
		Schema:         ReportSchema,
		GeneratedAt:    time.Now().UTC(),
		DocFingerprint: c.docFP,
		ParseMS:        ms(c.parse),
		KeyGenMS:       ms(c.keyGen),
		DetectWallMS:   ms(c.detectWall),
		Checkpoint:     nil,
		Resume:         c.resume,
		Interrupted:    c.interrupted,
		Metrics:        m.Snapshot(),
	}
	rep.PeakHeapBytes = rep.Metrics.PeakHeap
	if c.checkpoint.Writes > 0 {
		cp := c.checkpoint
		rep.Checkpoint = &cp
	}
	if s := &rep.Metrics; s.SpillRuns+s.SpillBytesWritten+s.SpillBytesRead > 0 {
		rep.Spill = &SpillReport{
			Runs:         s.SpillRuns,
			BytesWritten: s.SpillBytesWritten,
			BytesRead:    s.SpillBytesRead,
			WallSeconds:  s.SpillWallSeconds,
		}
	}
	for _, name := range c.order {
		cr := *c.candidates[name]
		passes := append([]PassReport(nil), c.passes[name]...)
		sort.Slice(passes, func(i, j int) bool { return passes[i].Pass < passes[j].Pass })
		cr.Passes = passes
		rep.Candidates = append(rep.Candidates, cr)
		if cr.Interrupted {
			// core discards interrupted candidates' partial counters
			// from Result.Stats; keep the totals aligned with it.
			continue
		}
		rep.SlidingWindowCPUMS += cr.SlidingWindowMS
		rep.TransitiveClosureCPUMS += cr.TransitiveClosureMS
		rep.Totals.WindowPairs += cr.WindowPairs
		rep.Totals.Comparisons += cr.Comparisons
		rep.Totals.FilteredOut += cr.FilteredOut
		rep.Totals.DuplicatePairs += cr.DuplicatePairs
		rep.Totals.Clusters += cr.Clusters
		rep.Totals.NonSingleton += cr.NonSingleton
	}
	sort.Slice(rep.Candidates, func(i, j int) bool { return rep.Candidates[i].Name < rep.Candidates[j].Name })
	if attempted := rep.Totals.Comparisons + rep.Totals.FilteredOut; attempted > 0 {
		rep.FilterHitRate = float64(rep.Totals.FilteredOut) / float64(attempted)
	}
	rep.SimCacheHitRate = rep.Metrics.SimCacheHitRate
	if s := c.phases.Summaries(); len(s) > 0 {
		rep.PhaseLatency = s
	}
	if c.resume != nil {
		if np := c.resumeNextPass(); len(np) > 0 {
			rep.Resume.NextPass = np
		}
	}
	return rep
}

// resumeNextPass extracts mid-candidate resume points recorded on
// candidate spans. Callers hold c.mu.
func (c *Collector) resumeNextPass() map[string]int {
	out := map[string]int{}
	for name, cr := range c.candidates {
		if cr.ResumedFromPass > 0 {
			out[name] = cr.ResumedFromPass
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
