package sxnm

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// Checkpoint error types, re-exported from internal/checkpoint.
type (
	// CheckpointMismatchError reports a checkpoint that is intact but
	// belongs to a different configuration, document, or format
	// version; it matches ErrCheckpointMismatch via errors.Is.
	CheckpointMismatchError = checkpoint.MismatchError
	// CheckpointCorruptError reports checkpoint bytes that failed
	// checksum or structural validation; it matches
	// ErrCheckpointCorrupt via errors.Is.
	CheckpointCorruptError = checkpoint.CorruptError
)

// CheckpointFS abstracts the filesystem checkpoints live on; pass a
// custom implementation to RunCheckpointedFSContext to intercept
// checkpoint I/O (fault-injection harnesses do). OSCheckpointFS is the
// real one.
type CheckpointFS = checkpoint.FS

// OSCheckpointFS returns the real filesystem for
// RunCheckpointedFSContext.
func OSCheckpointFS() CheckpointFS { return checkpoint.OSFS() }

// Typed checkpoint conditions; match with errors.Is.
var (
	// ErrNoCheckpoint reports that the checkpoint directory holds no
	// checkpoint; Resume returns it, RunCheckpointed starts fresh.
	ErrNoCheckpoint = checkpoint.ErrNoCheckpoint
	// ErrCheckpointMismatch reports a checkpoint recorded for a
	// different configuration or document. Neither RunCheckpointed nor
	// Resume will touch it; delete the directory (or pick another) to
	// proceed.
	ErrCheckpointMismatch = checkpoint.ErrMismatch
	// ErrCheckpointCorrupt reports damaged checkpoint bytes — a torn
	// write or bit rot. RunCheckpointed discards it and restarts clean;
	// Resume refuses with this error.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
)

// RunCheckpointed is RunReader with durable progress in the directory
// dir: one scan of r builds the GK rows and fingerprints the document,
// then the checkpoint bound to that fingerprint is loaded or created,
// and after each candidate completes (and each key pass of a candidate
// in flight) the state is persisted crash-safely. An interrupted or
// crashed run invoked again with the same config, document, and
// directory resumes instead of restarting; key generation reruns from
// the tokens, detection does not. When dir already holds a valid
// matching checkpoint, the run continues from it; when it holds
// nothing, or a corrupt remnant of a crash, a fresh run starts; when it
// holds a checkpoint of a *different* config or document (or of an
// older format version), the run refuses with ErrCheckpointMismatch
// rather than silently mixing state.
func (d *Detector) RunCheckpointed(r io.Reader, dir string) (*Result, error) {
	return d.RunCheckpointedContext(context.Background(), r, dir)
}

// RunCheckpointedContext is RunCheckpointed under a context and the
// Detector's Limits. An interrupted run (cancellation, deadline,
// limit breach) flushes its progress to dir before returning the
// partial Result and the typed cause, so a later identical call picks
// up where it stopped. A scan cut short never reaches the checkpoint:
// dir is left as it was. Every error is prefixed "sxnm:".
func (d *Detector) RunCheckpointedContext(ctx context.Context, r io.Reader, dir string) (*Result, error) {
	return d.RunCheckpointedFSContext(ctx, r, checkpoint.OSFS(), dir)
}

// RunCheckpointedFSContext is RunCheckpointedContext with checkpoint
// I/O routed through fsys instead of the real filesystem — the seam
// fault-injection harnesses (and the daemon's kill-the-run-at-every-
// step tests) use to fail or truncate individual checkpoint writes.
func (d *Detector) RunCheckpointedFSContext(ctx context.Context, r io.Reader, fsys CheckpointFS, dir string) (*Result, error) {
	return d.runCheckpointed(ctx, r, func(cfgFP, docFP string) (*checkpoint.Dir, *checkpoint.State, error) {
		cp, st, err := checkpoint.Load(fsys, dir, d.cfg, cfgFP, docFP)
		if errors.Is(err, ErrNoCheckpoint) || errors.Is(err, ErrCheckpointCorrupt) {
			cp, err = checkpoint.Create(fsys, dir, cfgFP, docFP)
		}
		return cp, st, err
	})
}

// Resume continues the run checkpointed in dir over the document read
// from r, strictly: unlike RunCheckpointed it never starts over,
// failing with ErrNoCheckpoint, ErrCheckpointMismatch, or
// ErrCheckpointCorrupt when dir holds nothing resumable for this
// config and document.
func (d *Detector) Resume(r io.Reader, dir string) (*Result, error) {
	return d.ResumeContext(context.Background(), r, dir)
}

// ResumeContext is Resume under a context and the Detector's Limits.
func (d *Detector) ResumeContext(ctx context.Context, r io.Reader, dir string) (*Result, error) {
	return d.runCheckpointed(ctx, r, func(cfgFP, docFP string) (*checkpoint.Dir, *checkpoint.State, error) {
		return checkpoint.Load(checkpoint.OSFS(), dir, d.cfg, cfgFP, docFP)
	})
}

// runCheckpointed is the reader path bound to a checkpoint: after the
// scan, open loads or creates the checkpoint for the config and token
// fingerprints (a nil State starts detection fresh), detection runs
// with its hooks attached, and an uninterrupted run marks it done.
// Interruptions pass through with their partial Result, leaving the
// checkpoint resumable.
func (d *Detector) runCheckpointed(ctx context.Context, r io.Reader, open func(cfgFP, docFP string) (*checkpoint.Dir, *checkpoint.State, error)) (*Result, error) {
	cfgFP, err := checkpoint.ConfigFingerprint(d.cfg)
	if err != nil {
		return nil, fmt.Errorf("sxnm: %w", err)
	}
	res, _, err := d.runTokens(ctx, r, true, func(ctx context.Context, kg *core.KeyGenResult, docFP string) (*Result, error) {
		cp, st, err := open(cfgFP, docFP)
		if err != nil {
			return nil, err
		}
		cp.SetObserver(d.opts.Observer)
		opts := d.opts
		opts.Checkpointer = cp
		if st != nil {
			opts.Resume = st.ResumeState()
		}
		res, err := core.DetectContext(ctx, kg, d.cfg, opts)
		if err == nil {
			err = cp.Finish()
		}
		return res, err
	})
	if err != nil {
		err = fmt.Errorf("sxnm: %w", err)
	}
	return res, err
}
