package core

import "repro/internal/cluster"

// Checkpointer receives durable-progress callbacks from a run so a
// crash or eviction loses at most the work since the last callback.
// The engine invokes the methods at well-defined points:
//
//   - Progress whenever a candidate's detection reaches a durable
//     intermediate state: after each completed key pass, and
//     best-effort when an interruption cuts a candidate short. The
//     pairs are every duplicate pair found so far; detection can
//     later continue at nextPass with those pairs known (re-running
//     an interrupted pass re-derives its missing comparisons
//     deterministically).
//   - CandidateDone after a candidate's cluster set is final, in
//     bottom-up completion order.
//
// A non-nil error from Progress or CandidateDone on the normal path
// aborts the run — the caller asked for durability, so continuing
// without it would be silent data loss. The one
// exception is the best-effort Progress flush performed while an
// interruption is already unwinding: its error is dropped, because
// the typed interruption cause must win and the checkpoint merely
// stays one step staler.
//
// The engine calls every method from the goroutine running the
// detection loop, one candidate after another. internal/checkpoint.Dir
// implements this interface.
type Checkpointer interface {
	Progress(candidate string, nextPass int, pairs []cluster.Pair) error
	CandidateDone(candidate string, cs *cluster.ClusterSet) error
}

// CandidateProgress is the durable mid-candidate state persisted by a
// Checkpointer and replayed through ResumeState: detection restarts at
// key pass NextPass with Pairs as the duplicate pairs already found.
// NextPass equal to the candidate's key count means every sliding
// window completed and only the transitive closure remains.
type CandidateProgress struct {
	NextPass int
	Pairs    []cluster.Pair
}

// ResumeState seeds a detection run with work completed by an earlier
// (checkpointed) run over the same GK tables and configuration.
// Candidates in Clusters are not re-detected: their cluster sets are
// adopted verbatim and feed ancestors' descendant similarity exactly
// as if they had just been computed. Candidates in Progress restart
// at the recorded key pass with the recorded pairs pre-seeded.
//
// The caller is responsible for only resuming state that matches the
// document and configuration (internal/checkpoint enforces this with
// fingerprints); mixing state across inputs produces silently wrong
// clusters.
type ResumeState struct {
	Clusters map[string]*cluster.ClusterSet
	Progress map[string]*CandidateProgress
}
