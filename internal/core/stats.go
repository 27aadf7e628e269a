package core

import (
	"encoding/json"
	"fmt"
)

// String renders the per-candidate measurements as one log-friendly
// line.
func (c *CandidateStats) String() string {
	return fmt.Sprintf("rows=%d comparisons=%d window_pairs=%d filtered_out=%d duplicate_pairs=%d clusters=%d non_singleton=%d sw=%v tc=%v",
		c.Rows, c.Comparisons, c.WindowPairs, c.FilteredOut, c.DuplicatePairs,
		c.Clusters, c.NonSingleton, c.SlidingWindow, c.TransitiveClosure)
}

// MarshalJSON emits the candidate stats with stable snake_case keys;
// durations appear both as nanosecond integers (for tooling) and as
// Go duration strings (for humans reading logs).
func (c *CandidateStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{
		"rows":                  c.Rows,
		"comparisons":           c.Comparisons,
		"window_pairs":          c.WindowPairs,
		"filtered_out":          c.FilteredOut,
		"duplicate_pairs":       c.DuplicatePairs,
		"clusters":              c.Clusters,
		"non_singleton":         c.NonSingleton,
		"sliding_window_ns":     int64(c.SlidingWindow),
		"sliding_window":        c.SlidingWindow.String(),
		"transitive_closure_ns": int64(c.TransitiveClosure),
		"transitive_closure":    c.TransitiveClosure.String(),
	})
}

// String renders the run-wide measurements as one log-friendly line:
// phase timings, then counters. The sw/tc/dd values are elapsed times
// summed over candidates (see Stats); their "_cpu" suffixes, like the
// JSON keys below, keep the established output format.
func (s *Stats) String() string {
	return fmt.Sprintf("kg=%v sw_cpu=%v tc_cpu=%v dd_cpu=%v detect_wall=%v comparisons=%d filtered_out=%d duplicate_pairs=%d candidates=%d",
		s.KeyGen, s.SlidingWindow, s.TransitiveClosure, s.DuplicateDetection(),
		s.DetectionWall, s.Comparisons, s.FilteredOut, s.DuplicatePairs, len(s.Candidates))
}

// MarshalJSON emits the aggregate stats with stable snake_case keys.
// The "*_cpu" keys hold the summed per-candidate elapsed times; the
// names are kept so the format does not move.
// Durations carry the same dual ns/string representation as
// CandidateStats; the per-candidate map is keyed by candidate name
// (encoding/json sorts map keys, so output is deterministic).
func (s *Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{
		"key_gen_ns":                 s.KeyGen.Nanoseconds(),
		"key_gen":                    s.KeyGen.String(),
		"sliding_window_cpu_ns":      s.SlidingWindow.Nanoseconds(),
		"sliding_window_cpu":         s.SlidingWindow.String(),
		"transitive_closure_cpu_ns":  s.TransitiveClosure.Nanoseconds(),
		"transitive_closure_cpu":     s.TransitiveClosure.String(),
		"duplicate_detection_cpu_ns": s.DuplicateDetection().Nanoseconds(),
		"duplicate_detection_cpu":    s.DuplicateDetection().String(),
		"detect_wall_ns":             s.DetectionWall.Nanoseconds(),
		"detect_wall":                s.DetectionWall.String(),
		"comparisons":                s.Comparisons,
		"filtered_out":               s.FilteredOut,
		"duplicate_pairs":            s.DuplicatePairs,
		"candidates":                 s.Candidates,
	})
}
