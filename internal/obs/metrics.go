package obs

import (
	"expvar"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the run's live counter and gauge set. All fields are
// updated atomically; the engine batches hot-loop increments and
// flushes deltas at pass boundaries and every few thousand window
// pairs, so a Snapshot taken mid-run is at most a flush interval
// stale. Counters are monotonic within one run; gauges
// (heap, expected pairs) are point-in-time.
type Metrics struct {
	// Sliding-window counters.
	WindowPairs    atomic.Int64 // window pair slots visited (incl. repeats)
	Comparisons    atomic.Int64 // distinct similarity computations
	FilteredOut    atomic.Int64 // comparisons skipped by the upper-bound filter
	DuplicatePairs atomic.Int64 // distinct pairs classified duplicate
	ODSimCalls     atomic.Int64 // object-description similarity invocations
	DescSimCalls   atomic.Int64 // descendant similarity invocations

	// Phase progress.
	GKRows          atomic.Int64 // rows across all GK tables
	PassesDone      atomic.Int64
	CandidatesDone  atomic.Int64
	CandidatesTotal atomic.Int64 // gauge, set at detection start

	// Similarity memo layer (Options.SimCache). Hits count value-pair
	// and descendant-overlap results served from memory, including the
	// interned set-ID fast path; misses count computed-and-inserted
	// results; evictions count entries dropped to the capacity bound.
	SimCacheHits      atomic.Int64
	SimCacheMisses    atomic.Int64
	SimCacheEvictions atomic.Int64
	DescSetsInterned  atomic.Int64 // distinct descendant multisets interned

	// Gauges sampled per pass.
	HeapInUse atomic.Int64 // bytes, sampled via runtime/metrics
	PeakHeap  atomic.Int64 // high-water mark of HeapInUse samples

	// Work estimate for progress/ETA: remaining window pair slots at
	// detection start (fixed windows; adaptive extension can exceed it).
	ExpectedWindowPairs atomic.Int64

	// Checkpointing.
	CheckpointWrites atomic.Int64
	CheckpointBytes  atomic.Int64

	// External-sort spill path (Options.SpillThresholdRows). Runs count
	// sorted run files written; bytes cover the run-file payloads in
	// each direction; wall time is the cumulative sort+spill duration
	// (merge streaming is accounted to the sliding window).
	SpillRuns         atomic.Int64
	SpillBytesWritten atomic.Int64
	SpillBytesRead    atomic.Int64
	SpillWallNanos    atomic.Int64

	// Resume provenance.
	ResumedCandidates atomic.Int64 // candidates adopted from a checkpoint
	ResumedPairs      atomic.Int64 // duplicate pairs seeded from a checkpoint

	// start is read by snapshots concurrently with MarkStart.
	start atomic.Pointer[time.Time]
}

// MarkStart pins the rate baseline; the engine calls it when detection
// begins. Subsequent calls are no-ops.
func (m *Metrics) MarkStart() {
	if m == nil {
		return
	}
	now := time.Now()
	m.start.CompareAndSwap(nil, &now)
}

// Elapsed returns the time since MarkStart (0 before it).
func (m *Metrics) Elapsed() time.Duration {
	if m == nil {
		return 0
	}
	if t := m.start.Load(); t != nil {
		return time.Since(*t)
	}
	return 0
}

// SampleHeap reads the live heap size from runtime/metrics (far
// cheaper than runtime.ReadMemStats — no stop-the-world) and updates
// the HeapInUse gauge and PeakHeap high-water mark. If the
// runtime/metrics sample comes back unsupported or implausibly small
// — a renamed metric on a future runtime would otherwise freeze the
// gauge at a bogus value for every pass — it falls back to
// runtime.ReadMemStats, which cannot be absent.
func (m *Metrics) SampleHeap() {
	if m == nil {
		return
	}
	v := liveHeapBytes()
	if v < heapSampleFloor {
		var st runtime.MemStats
		runtime.ReadMemStats(&st)
		v = int64(st.HeapInuse)
	}
	if v <= 0 {
		return
	}
	m.HeapInUse.Store(v)
	for {
		peak := m.PeakHeap.Load()
		if v <= peak || m.PeakHeap.CompareAndSwap(peak, v) {
			break
		}
	}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapSampleFloor is the smallest live-heap reading taken at face
// value: a Go process's runtime alone keeps far more than 64 KiB
// live, so anything below it means the sample failed, not that the
// heap is tiny.
const heapSampleFloor = 64 << 10

func liveHeapBytes() int64 {
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(sample[0].Value.Uint64())
}

// Snapshot is a consistent-enough point-in-time copy of Metrics with
// the derived rates the issue tracker dashboards want precomputed. It
// marshals cleanly to JSON and renders to Prometheus text format.
type Snapshot struct {
	WindowPairs         int64   `json:"window_pairs"`
	Comparisons         int64   `json:"comparisons"`
	FilteredOut         int64   `json:"filtered_out"`
	DuplicatePairs      int64   `json:"duplicate_pairs"`
	ODSimCalls          int64   `json:"od_sim_calls"`
	DescSimCalls        int64   `json:"desc_sim_calls"`
	SimCacheHits        int64   `json:"sim_cache_hits"`
	SimCacheMisses      int64   `json:"sim_cache_misses"`
	SimCacheEvictions   int64   `json:"sim_cache_evictions"`
	DescSetsInterned    int64   `json:"desc_sets_interned"`
	GKRows              int64   `json:"gk_rows"`
	PassesDone          int64   `json:"passes_done"`
	CandidatesDone      int64   `json:"candidates_done"`
	CandidatesTotal     int64   `json:"candidates_total"`
	HeapInUse           int64   `json:"heap_in_use_bytes"`
	PeakHeap            int64   `json:"peak_heap_bytes"`
	ExpectedWindowPairs int64   `json:"expected_window_pairs"`
	CheckpointWrites    int64   `json:"checkpoint_writes"`
	CheckpointBytes     int64   `json:"checkpoint_bytes"`
	SpillRuns           int64   `json:"spill_runs"`
	SpillBytesWritten   int64   `json:"spill_bytes_written"`
	SpillBytesRead      int64   `json:"spill_bytes_read"`
	SpillWallSeconds    float64 `json:"spill_wall_seconds"`
	ResumedCandidates   int64   `json:"resumed_candidates"`
	ResumedPairs        int64   `json:"resumed_pairs"`
	ElapsedSeconds      float64 `json:"elapsed_seconds"`
	ComparisonsPerSec   float64 `json:"comparisons_per_sec"`
	FilterHitRate       float64 `json:"filter_hit_rate"`
	SimCacheHitRate     float64 `json:"sim_cache_hit_rate"`
}

// Snapshot copies the current values and computes derived rates.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		WindowPairs:         m.WindowPairs.Load(),
		Comparisons:         m.Comparisons.Load(),
		FilteredOut:         m.FilteredOut.Load(),
		DuplicatePairs:      m.DuplicatePairs.Load(),
		ODSimCalls:          m.ODSimCalls.Load(),
		DescSimCalls:        m.DescSimCalls.Load(),
		SimCacheHits:        m.SimCacheHits.Load(),
		SimCacheMisses:      m.SimCacheMisses.Load(),
		SimCacheEvictions:   m.SimCacheEvictions.Load(),
		DescSetsInterned:    m.DescSetsInterned.Load(),
		GKRows:              m.GKRows.Load(),
		PassesDone:          m.PassesDone.Load(),
		CandidatesDone:      m.CandidatesDone.Load(),
		CandidatesTotal:     m.CandidatesTotal.Load(),
		HeapInUse:           m.HeapInUse.Load(),
		PeakHeap:            m.PeakHeap.Load(),
		ExpectedWindowPairs: m.ExpectedWindowPairs.Load(),
		CheckpointWrites:    m.CheckpointWrites.Load(),
		CheckpointBytes:     m.CheckpointBytes.Load(),
		SpillRuns:           m.SpillRuns.Load(),
		SpillBytesWritten:   m.SpillBytesWritten.Load(),
		SpillBytesRead:      m.SpillBytesRead.Load(),
		SpillWallSeconds:    time.Duration(m.SpillWallNanos.Load()).Seconds(),
		ResumedCandidates:   m.ResumedCandidates.Load(),
		ResumedPairs:        m.ResumedPairs.Load(),
		ElapsedSeconds:      m.Elapsed().Seconds(),
	}
	// Both rates share the attempted-comparison denominator
	// (Comparisons + FilteredOut, the pairs the sweep enumerated):
	// throughput then measures pairs resolved per second whether the
	// filter skipped them or not, and filter_hit_rate is the fraction
	// of that same stream the filter absorbed. DESIGN.md §11 pins the
	// definitions; TestReportMatchesStats pins them against Stats.
	attempted := s.Comparisons + s.FilteredOut
	if s.ElapsedSeconds > 0 {
		s.ComparisonsPerSec = float64(attempted) / s.ElapsedSeconds
	}
	if attempted > 0 {
		s.FilterHitRate = float64(s.FilteredOut) / float64(attempted)
	}
	if lookups := s.SimCacheHits + s.SimCacheMisses; lookups > 0 {
		s.SimCacheHitRate = float64(s.SimCacheHits) / float64(lookups)
	}
	return s
}

// promRow describes one exported Prometheus sample.
type promRow struct {
	name string
	kind string // counter | gauge
	help string
	val  func(*Snapshot) float64
}

var promRows = []promRow{
	{"sxnm_window_pairs_total", "counter", "Window pair slots visited, including repeats across passes.", func(s *Snapshot) float64 { return float64(s.WindowPairs) }},
	{"sxnm_comparisons_total", "counter", "Distinct similarity computations.", func(s *Snapshot) float64 { return float64(s.Comparisons) }},
	{"sxnm_filtered_out_total", "counter", "Comparisons skipped by the OD upper-bound filter.", func(s *Snapshot) float64 { return float64(s.FilteredOut) }},
	{"sxnm_duplicate_pairs_total", "counter", "Distinct pairs classified duplicate before transitive closure.", func(s *Snapshot) float64 { return float64(s.DuplicatePairs) }},
	{"sxnm_od_sim_calls_total", "counter", "Object-description similarity invocations.", func(s *Snapshot) float64 { return float64(s.ODSimCalls) }},
	{"sxnm_desc_sim_calls_total", "counter", "Descendant similarity invocations.", func(s *Snapshot) float64 { return float64(s.DescSimCalls) }},
	{"sxnm_sim_cache_hits_total", "counter", "Similarity results served from the memo layer.", func(s *Snapshot) float64 { return float64(s.SimCacheHits) }},
	{"sxnm_sim_cache_misses_total", "counter", "Similarity results computed and inserted into the memo layer.", func(s *Snapshot) float64 { return float64(s.SimCacheMisses) }},
	{"sxnm_sim_cache_evictions_total", "counter", "Memo entries dropped to respect the cache capacity.", func(s *Snapshot) float64 { return float64(s.SimCacheEvictions) }},
	{"sxnm_desc_sets_interned_total", "counter", "Distinct descendant cluster-ID multisets interned.", func(s *Snapshot) float64 { return float64(s.DescSetsInterned) }},
	{"sxnm_gk_rows_total", "counter", "Rows across all GK tables after key generation.", func(s *Snapshot) float64 { return float64(s.GKRows) }},
	{"sxnm_passes_done_total", "counter", "Completed key passes.", func(s *Snapshot) float64 { return float64(s.PassesDone) }},
	{"sxnm_candidates_done_total", "counter", "Completed candidates.", func(s *Snapshot) float64 { return float64(s.CandidatesDone) }},
	{"sxnm_candidates_total", "gauge", "Candidates configured for this run.", func(s *Snapshot) float64 { return float64(s.CandidatesTotal) }},
	{"sxnm_heap_in_use_bytes", "gauge", "Live heap bytes, sampled per pass.", func(s *Snapshot) float64 { return float64(s.HeapInUse) }},
	{"sxnm_peak_heap_bytes", "gauge", "High-water mark of the per-pass heap samples.", func(s *Snapshot) float64 { return float64(s.PeakHeap) }},
	{"sxnm_expected_window_pairs", "gauge", "Window pair slots expected at detection start.", func(s *Snapshot) float64 { return float64(s.ExpectedWindowPairs) }},
	{"sxnm_checkpoint_writes_total", "counter", "Durable checkpoint section writes.", func(s *Snapshot) float64 { return float64(s.CheckpointWrites) }},
	{"sxnm_checkpoint_bytes_total", "counter", "Bytes written to the checkpoint directory.", func(s *Snapshot) float64 { return float64(s.CheckpointBytes) }},
	{"sxnm_spill_runs_total", "counter", "Sorted run files written by the external-sort spill path.", func(s *Snapshot) float64 { return float64(s.SpillRuns) }},
	{"sxnm_spill_bytes_written_total", "counter", "Run-file payload bytes written by the spill path.", func(s *Snapshot) float64 { return float64(s.SpillBytesWritten) }},
	{"sxnm_spill_bytes_read_total", "counter", "Run-file payload bytes streamed back during merges.", func(s *Snapshot) float64 { return float64(s.SpillBytesRead) }},
	{"sxnm_spill_wall_seconds", "counter", "Cumulative wall time spent sorting and spilling runs.", func(s *Snapshot) float64 { return s.SpillWallSeconds }},
	{"sxnm_resumed_candidates_total", "counter", "Candidates adopted from a checkpoint instead of re-detected.", func(s *Snapshot) float64 { return float64(s.ResumedCandidates) }},
	{"sxnm_resumed_pairs_total", "counter", "Duplicate pairs seeded from a checkpoint.", func(s *Snapshot) float64 { return float64(s.ResumedPairs) }},
	{"sxnm_comparisons_per_second", "gauge", "Attempted-comparison throughput (computed + filtered) since detection start.", func(s *Snapshot) float64 { return s.ComparisonsPerSec }},
	{"sxnm_filter_hit_rate", "gauge", "Fraction of attempted comparisons (computed + filtered) the filter skipped.", func(s *Snapshot) float64 { return s.FilterHitRate }},
	{"sxnm_sim_cache_hit_rate", "gauge", "Fraction of memo lookups served from memory.", func(s *Snapshot) float64 { return s.SimCacheHitRate }},
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (v0.0.4), one HELP/TYPE/sample triple per metric.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, r := range promRows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n",
			r.name, r.help, r.name, r.kind, r.name, r.val(&s)); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the current metric values; see
// Snapshot.WritePrometheus.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	return m.Snapshot().WritePrometheus(w)
}

// expvarMu serializes the published-name check; expvar.Publish panics
// on duplicates, and repeated runs in one process (tests, servers)
// should republish the latest observer instead of crashing.
var expvarMu sync.Mutex

// PublishExpvar exposes the metric set under the given expvar name
// (e.g. "sxnm"), replacing a previously published metric set of the
// same name. The value rendered at /debug/vars is the JSON Snapshot.
func (m *Metrics) PublishExpvar(name string) {
	if m == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	f := expvar.Func(func() any { return m.Snapshot() })
	if v := expvar.Get(name); v != nil {
		// Already published (an earlier run in this process): expvar
		// offers no replace, so re-point the existing holder when it is
		// ours, or leave the foreign variable alone.
		if h, ok := v.(*expvarHolder); ok {
			h.set(f)
		}
		return
	}
	h := &expvarHolder{}
	h.set(f)
	expvar.Publish(name, h)
}

// expvarHolder is an expvar.Var whose target can be swapped, working
// around expvar's publish-once semantics.
type expvarHolder struct {
	mu sync.Mutex
	v  expvar.Var
}

func (h *expvarHolder) set(v expvar.Var) {
	h.mu.Lock()
	h.v = v
	h.mu.Unlock()
}

func (h *expvarHolder) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.v == nil {
		return "null"
	}
	return h.v.String()
}
