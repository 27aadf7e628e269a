package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/checkpoint"
)

// The spool is the daemons' durable state: one directory per job
// holding the submission itself, the run's checkpoint, the spill
// scratch, the job's ownership lease, and — once the job stops — its
// outcome and run report.
//
//	<spool>/<job-id>/
//	    job.json      the submission (written atomically at admission)
//	    lease.json    ownership: owner id + epoch + heartbeat (lease.go)
//	    checkpoint/   crash-safe engine checkpoint (RunCheckpointed, manifest
//	                  v2): cluster sets and pass progress; no GK tables,
//	                  which each attempt rebuilds from job.json's document
//	    spill/        external-sort run files of the key pass in flight; each
//	                  pass removes its own, so it is empty between attempts
//	    outcome.json  terminal state + clusters + stats (absent ⇒ not finished)
//	    report.json   per-candidate per-pass run report (all stop paths)
//	    metrics.prom  final engine counters, Prometheus text format
//	<spool>/.quarantine/<job-id>-<nanos>/
//	    …             a corrupt entry, moved aside; quarantine.json says why
//
// The invariant recovery relies on: a job directory with job.json but
// no outcome.json is unfinished work; whichever daemon holds (or
// legitimately takes over) its lease resumes it from its checkpoint.
// Multiple daemons may share one spool — every claim goes through the
// lease protocol in lease.go, never through directory ownership.
//
// All spool writes flow through the checkpoint.FS seam, so the fault
// harness can crash a daemon at any spool I/O step exactly as it does
// for checkpoint I/O. Reads stay plain os reads, mirroring the
// checkpoint layer: recovery always happens over whatever bytes
// actually reached the disk.

const (
	spoolJobFile       = "job.json"
	spoolOutcomeFile   = "outcome.json"
	spoolReportFile    = "report.json"
	spoolMetricsFile   = "metrics.prom"
	spoolCkptDir       = "checkpoint"
	spoolSpillDir      = "spill"
	spoolQuarantineDir = ".quarantine"
	quarantineFile     = "quarantine.json"
)

// spooledJob is the on-disk form of one admitted submission.
type spooledJob struct {
	ID        string      `json:"id"`
	Submitted time.Time   `json:"submitted"`
	Request   *JobRequest `json:"request"`
}

type spool struct {
	root string
	fsys checkpoint.FS
}

func newSpool(root string, fsys checkpoint.FS) (*spool, error) {
	if fsys == nil {
		fsys = checkpoint.OSFS()
	}
	if err := fsys.MkdirAll(root); err != nil {
		return nil, fmt.Errorf("server: creating spool: %w", err)
	}
	return &spool{root: root, fsys: fsys}, nil
}

func (s *spool) jobDir(id string) string        { return filepath.Join(s.root, id) }
func (s *spool) checkpointDir(id string) string { return filepath.Join(s.root, id, spoolCkptDir) }
func (s *spool) spillDir(id string) string      { return filepath.Join(s.root, id, spoolSpillDir) }

// admit persists a fresh submission. The job.json write is atomic
// (tmp + rename + dir fsync), so a crash mid-admission leaves either
// a complete record or a directory without job.json, which the sweep
// eventually clears.
func (s *spool) admit(j *job) error {
	dir := s.jobDir(j.id)
	if err := s.fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("server: spooling job %s: %w", j.id, err)
	}
	rec := spooledJob{ID: j.id, Submitted: j.submitted, Request: j.req}
	return s.writeJSONAtomic(filepath.Join(dir, spoolJobFile), rec)
}

// finish records a terminal outcome. Jobs requeued by a drain never
// reach here — the absence of outcome.json is what marks them
// resumable.
func (s *spool) finish(id string, out *Outcome) error {
	return s.writeJSONAtomic(filepath.Join(s.jobDir(id), spoolOutcomeFile), out)
}

// remove deletes a job's spool directory (TTL garbage collection, or
// administrative cleanup).
func (s *spool) remove(id string) error {
	return s.fsys.RemoveAll(s.jobDir(id))
}

// quarantine moves a corrupt job directory into .quarantine/ and
// records the typed reason inside it. The move is a rename, so the
// bad entry disappears from the scan atomically; corruption costs the
// operator one directory to inspect, never a daemon crash.
func (s *spool) quarantine(id, reason string, now time.Time) error {
	qroot := filepath.Join(s.root, spoolQuarantineDir)
	if err := s.fsys.MkdirAll(qroot); err != nil {
		return fmt.Errorf("server: quarantining %s: %w", id, err)
	}
	dst := filepath.Join(qroot, fmt.Sprintf("%s-%d", id, now.UnixNano()))
	if err := s.fsys.Rename(s.jobDir(id), dst); err != nil {
		return fmt.Errorf("server: quarantining %s: %w", id, err)
	}
	s.fsys.SyncDir(s.root)
	// Best-effort: the move already isolated the entry; a crash before
	// the reason file leaves an unexplained-but-contained directory.
	s.writeJSONAtomic(filepath.Join(dst, quarantineFile), map[string]any{
		"job":            id,
		"reason":         reason,
		"quarantined_at": now,
	})
	return nil
}

// loadOutcome returns the terminal record, or nil if the job never
// finished (the resumable case). An unreadable outcome is a typed
// corruption error — the sweep quarantines those.
func (s *spool) loadOutcome(id string) (*Outcome, error) {
	raw, err := os.ReadFile(filepath.Join(s.jobDir(id), spoolOutcomeFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out Outcome
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("server: corrupt outcome for job %s: %w", id, err)
	}
	return &out, nil
}

// spoolEntry is one directory the scan classified.
type spoolEntry struct {
	id  string
	rec *spooledJob // nil ⇒ corrupt
	err error       // why rec is nil
}

// scan reads every spooled job, oldest submission first. Directories
// whose job.json exists but does not decode (or names a different
// job) come back as corrupt entries for the sweep to quarantine;
// directories with NO job.json at all (crash mid-admission) are
// skipped here and aged out by the sweep.
func (s *spool) scan() ([]spoolEntry, error) {
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("server: scanning spool: %w", err)
	}
	var out []spoolEntry
	for _, ent := range ents {
		if !ent.IsDir() || ent.Name()[0] == '.' {
			continue
		}
		id := ent.Name()
		raw, err := os.ReadFile(filepath.Join(s.root, id, spoolJobFile))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			out = append(out, spoolEntry{id: id, err: fmt.Errorf("reading job.json: %w", err)})
			continue
		}
		var rec spooledJob
		if err := json.Unmarshal(raw, &rec); err != nil {
			out = append(out, spoolEntry{id: id, err: fmt.Errorf("decoding job.json: %w", err)})
			continue
		}
		if rec.ID != id || rec.Request == nil {
			out = append(out, spoolEntry{id: id, err: fmt.Errorf("job.json names %q, directory is %q", rec.ID, id)})
			continue
		}
		out = append(out, spoolEntry{id: id, rec: &rec})
	}
	sort.Slice(out, func(i, k int) bool {
		ri, rk := out[i].rec, out[k].rec
		switch {
		case ri == nil || rk == nil:
			return out[i].id < out[k].id
		case !ri.Submitted.Equal(rk.Submitted):
			return ri.Submitted.Before(rk.Submitted)
		default:
			return out[i].id < out[k].id
		}
	})
	return out, nil
}

// sweepAdmissionDebris removes job directories that never got a
// job.json (a crash between MkdirAll and the admission write) once
// they are older than ttl. scan skips these, so without this pass
// they would accumulate forever.
func (s *spool) sweepAdmissionDebris(now time.Time, ttl time.Duration) {
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if !ent.IsDir() || ent.Name()[0] == '.' {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.root, ent.Name(), spoolJobFile)); !errors.Is(err, os.ErrNotExist) {
			continue
		}
		if info, err := ent.Info(); err == nil && now.Sub(info.ModTime()) > ttl {
			s.fsys.RemoveAll(filepath.Join(s.root, ent.Name()))
		}
	}
}

// probeWrite checks whether the spool can still take a small durable
// write — the recovery probe that clears the disk-pressure gate.
func (s *spool) probeWrite() error {
	tmp, err := s.fsys.CreateTemp(s.root, ".probe*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(make([]byte, 4096))
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	s.fsys.Remove(tmp.Name())
	return werr
}

// writeJSONAtomic writes v as indented JSON via a temp file and
// rename, so readers never observe a torn document.
func (s *spool) writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encoding %s: %w", filepath.Base(path), err)
	}
	data = append(data, '\n')
	return s.writeFileAtomic(path, data)
}

// writeFileAtomic runs the temp-write/fsync/rename/dir-fsync
// sequence: after the rename, the PARENT directory is synced so the
// new directory entry itself survives power loss — the same contract
// the checkpoint layer keeps for its section files.
func (s *spool) writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := s.fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("server: writing %s: %w", filepath.Base(path), err)
	}
	_, werr := tmp.Write(data)
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		s.fsys.Remove(tmp.Name())
		return fmt.Errorf("server: writing %s: %w", filepath.Base(path), werr)
	}
	if err := s.fsys.Rename(tmp.Name(), path); err != nil {
		s.fsys.Remove(tmp.Name())
		return fmt.Errorf("server: writing %s: %w", filepath.Base(path), err)
	}
	if err := s.fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("server: syncing %s: %w", dir, err)
	}
	return nil
}
