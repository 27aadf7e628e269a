// Package checkpoint persists the durable state of an SXNM run to a
// run directory so an interrupted or crashed run resumes instead of
// restarting. The directory holds immutable section files — one
// cluster-set file per completed candidate and pass-level pair
// progress for the candidate in flight — plus a manifest naming each
// section with its SHA-256 and the config/document fingerprints the
// state belongs to. The GK tables are not saved: the scan that
// fingerprints the document to check it against the manifest builds
// them again in the same pass.
//
// Every write is crash-safe: content goes to a temp file, is fsynced,
// and is renamed into place before the manifest (itself written the
// same way) starts referencing it. A valid checkpoint is therefore
// never overwritten with a partial one; a crash at any step leaves
// the previous manifest pointing at intact files, and recovery either
// resumes from it or — when nothing valid survives — falls back to a
// clean restart. Load rejects checkpoints whose fingerprints do not
// match the caller's config and document with a typed *MismatchError
// rather than silently mixing state across inputs.
package checkpoint

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// Sentinel errors; match with errors.Is. Concrete mismatch and
// corruption details travel in *MismatchError and *CorruptError.
var (
	// ErrNoCheckpoint reports that the run directory holds no manifest.
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint present")
	// ErrMismatch is the errors.Is target of every *MismatchError.
	ErrMismatch = errors.New("checkpoint: checkpoint does not match")
	// ErrCorrupt is the errors.Is target of every *CorruptError.
	ErrCorrupt = errors.New("checkpoint: corrupt checkpoint")
)

// MismatchError reports a checkpoint that is intact but belongs to a
// different input: its format version, configuration fingerprint, or
// document fingerprint differs from the caller's. Resuming it would
// silently mix state across runs, so Load refuses.
type MismatchError struct {
	Field string // "format-version", "config", or "document"
	Want  string // the caller's value
	Got   string // the checkpoint's value
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: %s mismatch: checkpoint has %.16s…, run has %.16s…", e.Field, e.Got, e.Want)
}

// Is makes errors.Is(err, ErrMismatch) true for every MismatchError.
func (e *MismatchError) Is(target error) bool { return target == ErrMismatch }

// CorruptError reports checkpoint bytes that fail structural or
// checksum validation — a torn write, bit rot, or truncation. The
// safe recovery is a clean restart.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: %s: %s", e.Path, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) true for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// ConfigFingerprint hashes the canonical serialization of a
// configuration; two configs fingerprint equal exactly when their
// candidate definitions (paths, ODs, keys, windows, thresholds) are
// identical.
func ConfigFingerprint(cfg *config.Config) (string, error) {
	h := sha256.New()
	if err := cfg.Document().Write(h, xmltree.WriteOptions{}); err != nil {
		return "", fmt.Errorf("checkpoint: fingerprint config: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// DocumentFingerprint hashes the canonical serialization of a parsed
// document, so the same bytes parsed twice (or semantically identical
// documents differing only in ignorable whitespace handling) resume
// each other's checkpoints.
func DocumentFingerprint(doc *xmltree.Document) (string, error) {
	h := sha256.New()
	if err := doc.Write(h, xmltree.WriteOptions{}); err != nil {
		return "", fmt.Errorf("checkpoint: fingerprint document: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TokenFingerprint hashes a document from its tokens while a scanner
// reads it, for runs that never build the tree: once the scanner has
// returned io.EOF, Sum equals DocumentFingerprint of the tree the same
// input parses into.
type TokenFingerprint struct {
	h hash.Hash
	w *bufio.Writer
}

// FingerprintTokens attaches a TokenFingerprint to sc, which must not
// have yielded a token yet.
func FingerprintTokens(sc *xmltree.Scanner) *TokenFingerprint {
	h := sha256.New()
	f := &TokenFingerprint{h: h, w: bufio.NewWriter(h)}
	sc.Canonical(f.w)
	return f
}

// Sum returns the fingerprint of the tokens written so far.
func (f *TokenFingerprint) Sum() string {
	f.w.Flush() // a hash never fails a write
	return hex.EncodeToString(f.h.Sum(nil))
}

// State is the durable progress recovered from a checkpoint.
type State struct {
	// Phase is PhaseDetect or PhaseDone.
	Phase string
	// Clusters are the completed candidates' cluster sets.
	Clusters map[string]*cluster.ClusterSet
	// Progress is the pass-level state of candidates cut short mid-way.
	Progress map[string]*core.CandidateProgress
}

// ResumeState converts the recovered state into the engine's resume
// input.
func (s *State) ResumeState() *core.ResumeState {
	return &core.ResumeState{Clusters: s.Clusters, Progress: s.Progress}
}

// Dir is an open checkpoint directory. It implements core.Checkpointer
// so it can be handed to the engine via Options.Checkpointer; all
// methods are safe for concurrent use.
type Dir struct {
	fsys FS
	path string

	mu      sync.Mutex
	man     manifest
	ob      *obs.Observer
	opBytes int64 // bytes written by the in-flight operation
}

// SetObserver attaches an observer: every subsequent checkpoint
// operation emits one SpanCheckpoint span (kind, bytes written) and
// bumps the CheckpointWrites/CheckpointBytes counters. Byte counting
// happens here, under d.mu, so concurrent callers never misattribute
// each other's writes. A nil or disabled observer turns
// observation off.
func (d *Dir) SetObserver(ob *obs.Observer) {
	if !ob.Enabled() {
		ob = nil
	}
	d.mu.Lock()
	d.ob = ob
	d.mu.Unlock()
}

// opSpan opens the span for one public checkpoint operation and
// resets the byte counter; the returned func closes it with the bytes
// the operation wrote (temp-file bytes of a failed write included,
// with the failure recorded). Callers hold d.mu.
func (d *Dir) opSpan(kind string) func(err error) {
	d.opBytes = 0
	if d.ob == nil {
		return func(error) {}
	}
	sp := d.ob.StartSpan(obs.SpanCheckpoint, obs.String(obs.AttrKind, kind))
	return func(err error) {
		sp.SetAttr(obs.Int64(obs.AttrBytes, d.opBytes))
		if err != nil {
			sp.SetAttr(obs.String(obs.AttrCause, err.Error()))
		}
		sp.End()
		if m := d.ob.Metrics(); m != nil {
			m.CheckpointWrites.Add(1)
			m.CheckpointBytes.Add(d.opBytes)
		}
	}
}

// countWriter tallies bytes passing through writeAtomic.
type countWriter struct {
	w io.Writer
	n *int64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}

// Path returns the run directory.
func (d *Dir) Path() string { return d.path }

// Create initializes a fresh checkpoint in dir for a run with the
// given fingerprints, discarding any previous checkpoint state found
// there. The directory is created if missing. The manifest starts in
// the detection phase: the caller creates the checkpoint once the scan
// that fingerprinted the document has built the GK tables.
func Create(fsys FS, dir, configFP, docFP string) (*Dir, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	d := &Dir{fsys: fsys, path: dir}
	// Sweep remnants of an earlier run first: a stale section file
	// could otherwise collide with a fresh sequence number.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			name := e.Name()
			if name == manifestName || isSectionName(name) || strings.Contains(name, ".tmp-") {
				_ = fsys.Remove(filepath.Join(dir, name))
			}
		}
	}
	d.man = manifest{ConfigFP: configFP, DocFP: docFP, Phase: PhaseDetect}
	if err := d.writeManifest(); err != nil {
		return nil, err
	}
	return d, nil
}

// Load opens the checkpoint in dir and validates it end to end:
// manifest self-checksum, format version, config and document
// fingerprints, and every section file's SHA-256. On success it
// returns the Dir (positioned to keep appending progress) and the
// recovered State. Failures are typed: ErrNoCheckpoint when no
// manifest exists, *MismatchError for a checkpoint belonging to a
// different config/document, *CorruptError for damaged bytes.
func Load(fsys FS, dir string, cfg *config.Config, configFP, docFP string) (*Dir, *State, error) {
	manPath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(manPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNoCheckpoint
		}
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	man, err := parseManifest(data)
	if err != nil {
		var me *MismatchError
		if errors.As(err, &me) {
			return nil, nil, me
		}
		return nil, nil, &CorruptError{Path: manPath, Reason: err.Error()}
	}
	if man.ConfigFP != configFP {
		return nil, nil, &MismatchError{Field: "config", Want: configFP, Got: man.ConfigFP}
	}
	if man.DocFP != docFP {
		return nil, nil, &MismatchError{Field: "document", Want: docFP, Got: man.DocFP}
	}

	st := &State{
		Phase:    man.Phase,
		Clusters: make(map[string]*cluster.ClusterSet),
		Progress: make(map[string]*core.CandidateProgress),
	}
	for _, cl := range man.Clusters {
		data, err := readSection(dir, &cl.section)
		if err != nil {
			return nil, nil, err
		}
		cs, err := parseClusters(data, cl.Candidate)
		if err != nil {
			return nil, nil, &CorruptError{Path: filepath.Join(dir, cl.File), Reason: err.Error()}
		}
		if err := checkCandidate(cfg, dir, &cl.section, cl.Candidate); err != nil {
			return nil, nil, err
		}
		st.Clusters[cl.Candidate] = cs
	}
	for _, ps := range man.Pairs {
		if _, done := st.Clusters[ps.Candidate]; done {
			continue // superseded by the candidate's final cluster set
		}
		data, err := readSection(dir, &ps.section)
		if err != nil {
			return nil, nil, err
		}
		pairs, err := parsePairs(data, ps.Candidate, ps.NextPass)
		if err != nil {
			return nil, nil, &CorruptError{Path: filepath.Join(dir, ps.File), Reason: err.Error()}
		}
		if err := checkCandidate(cfg, dir, &ps.section, ps.Candidate); err != nil {
			return nil, nil, err
		}
		if c := cfg.Candidate(ps.Candidate); ps.NextPass > len(c.CompiledKeys()) {
			return nil, nil, &CorruptError{Path: filepath.Join(dir, ps.File),
				Reason: fmt.Sprintf("next pass %d beyond %d keys", ps.NextPass, len(c.CompiledKeys()))}
		}
		st.Progress[ps.Candidate] = &core.CandidateProgress{NextPass: ps.NextPass, Pairs: pairs}
	}
	return &Dir{fsys: fsys, path: dir, man: *man}, st, nil
}

// checkCandidate rejects sections naming candidates absent from the
// configuration (unreachable when fingerprints match, but a defensive
// layer against hand-edited manifests).
func checkCandidate(cfg *config.Config, dir string, sec *section, name string) error {
	if cfg.Candidate(name) == nil {
		return &CorruptError{Path: filepath.Join(dir, sec.File),
			Reason: fmt.Sprintf("unknown candidate %q", name)}
	}
	return nil
}

// readSection reads a manifest-referenced file and verifies its
// SHA-256 before any parsing happens.
func readSection(dir string, sec *section) ([]byte, error) {
	path := filepath.Join(dir, sec.File)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &CorruptError{Path: path, Reason: "missing section: " + err.Error()}
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != sec.SHA {
		return nil, &CorruptError{Path: path, Reason: "section checksum mismatch"}
	}
	return data, nil
}

// Progress persists pass-level progress for one candidate, replacing
// any earlier progress section. Implements core.Checkpointer.
func (d *Dir) Progress(candidate string, nextPass int, pairs []cluster.Pair) (err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	end := d.opSpan("pairs")
	defer func() { end(err) }()
	sec, err := d.writeSection("pairs", func(w io.Writer) error {
		return encodePairs(w, candidate, nextPass, pairs)
	})
	if err != nil {
		return err
	}
	old := d.man.dropPairs(candidate)
	d.man.Pairs = append(d.man.Pairs, pairsSection{Candidate: candidate, NextPass: nextPass, section: sec})
	if err := d.writeManifest(); err != nil {
		return err
	}
	if old != "" {
		d.removeOld(&section{File: old})
	}
	return nil
}

// CandidateDone persists a completed candidate's cluster set and
// drops its now-superseded progress section. Implements
// core.Checkpointer.
func (d *Dir) CandidateDone(candidate string, cs *cluster.ClusterSet) (err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.man.clustersFor(candidate) != nil {
		return nil // already durable (idempotent under retries)
	}
	end := d.opSpan("clusters")
	defer func() { end(err) }()
	sec, err := d.writeSection("clusters", func(w io.Writer) error {
		return encodeClusters(w, candidate, cs)
	})
	if err != nil {
		return err
	}
	oldPairs := d.man.dropPairs(candidate)
	d.man.Clusters = append(d.man.Clusters, clusterSection{Candidate: candidate, section: sec})
	if err := d.writeManifest(); err != nil {
		return err
	}
	if oldPairs != "" {
		d.removeOld(&section{File: oldPairs})
	}
	return nil
}

// Finish marks the run complete. A finished checkpoint still resumes
// (every candidate loads as completed), which makes re-running an
// already-done job idempotent.
func (d *Dir) Finish() (err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	end := d.opSpan("finish")
	defer func() { end(err) }()
	d.man.Phase = PhaseDone
	return d.writeManifest()
}

// writeSection writes one immutable section file crash-safely: a
// fresh sequence-numbered name, content through a temp file, fsync,
// rename, directory sync. The returned section carries the SHA-256 of
// the written bytes. Callers hold d.mu.
func (d *Dir) writeSection(kind string, encode func(io.Writer) error) (section, error) {
	d.man.Seq++
	final := fmt.Sprintf("s%05d-%s.tsv", d.man.Seq, kind)
	h := sha256.New()
	if err := d.writeAtomic(final, func(w io.Writer) error {
		return encode(io.MultiWriter(w, h))
	}); err != nil {
		return section{}, err
	}
	return section{File: final, SHA: hex.EncodeToString(h.Sum(nil))}, nil
}

// writeManifest atomically replaces the manifest with the current
// in-memory state. Callers hold d.mu.
func (d *Dir) writeManifest() error {
	data := encodeManifest(&d.man)
	return d.writeAtomic(manifestName, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeAtomic runs the temp-write/fsync/rename/dir-sync sequence for
// one file in the run directory.
func (d *Dir) writeAtomic(name string, write func(io.Writer) error) error {
	f, err := d.fsys.CreateTemp(d.path, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	bw := bufio.NewWriter(f)
	cw := countWriter{w: bw, n: &d.opBytes}
	fail := func(err error) error {
		f.Close()
		_ = d.fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	if err := write(cw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		_ = d.fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	if err := d.fsys.Rename(tmp, filepath.Join(d.path, name)); err != nil {
		_ = d.fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	if err := d.fsys.SyncDir(d.path); err != nil {
		return fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	return nil
}

// removeOld deletes a superseded section file. Purely cosmetic — the
// manifest no longer references it — so errors are ignored.
func (d *Dir) removeOld(sec *section) {
	if sec != nil && sec.File != "" {
		_ = d.fsys.Remove(filepath.Join(d.path, sec.File))
	}
}

// isSectionName reports whether name matches the writer's
// sequence-numbered section pattern (s00001-<kind>.tsv).
func isSectionName(name string) bool {
	if !strings.HasPrefix(name, "s") || !strings.HasSuffix(name, ".tsv") {
		return false
	}
	rest, _, ok := strings.Cut(name[1:], "-")
	if !ok {
		return false
	}
	_, err := strconv.Atoi(rest)
	return err == nil
}

// Cluster-set section format:
//
//	#cs	<candidate>	clusters=<n>
//	<cluster id>	<member>,<member>,…
//
// Cluster IDs are the canonical ones cluster.Build assigns (ordered by
// smallest member, starting at 1); parseClusters rebuilds through a
// union-find, so a recovered set is byte-identical to the original.

func encodeClusters(w io.Writer, candidate string, cs *cluster.ClusterSet) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#cs\t%s\tclusters=%d\n", escapeField(candidate), cs.Len())
	for _, c := range cs.Clusters {
		bw.WriteString(strconv.Itoa(c.ID))
		for i, m := range c.Members {
			if i == 0 {
				bw.WriteByte('\t')
			} else {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.Itoa(m))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func parseClusters(data []byte, candidate string) (*cluster.ClusterSet, error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) == 0 {
		return nil, errors.New("empty cluster section")
	}
	h := strings.Split(lines[0], "\t")
	if len(h) != 3 || h[0] != "#cs" {
		return nil, errors.New("malformed cluster header")
	}
	if unescapeField(h[1]) != candidate {
		return nil, fmt.Errorf("cluster section for %q, manifest says %q", unescapeField(h[1]), candidate)
	}
	n, err := headerInt(h[2], "clusters")
	if err != nil || n != len(lines)-1 {
		return nil, fmt.Errorf("cluster count mismatch (header %s, %d rows)", h[2], len(lines)-1)
	}
	uf := cluster.NewUnionFind()
	seen := make(map[int]bool)
	for i, line := range lines[1:] {
		_, members, ok := strings.Cut(line, "\t")
		if !ok || members == "" {
			return nil, fmt.Errorf("cluster row %d: malformed", i+1)
		}
		first := -1
		for _, ms := range strings.Split(members, ",") {
			m, err := strconv.Atoi(ms)
			if err != nil {
				return nil, fmt.Errorf("cluster row %d: bad member %q", i+1, ms)
			}
			if seen[m] {
				return nil, fmt.Errorf("cluster row %d: member %d in two clusters", i+1, m)
			}
			seen[m] = true
			uf.Add(m)
			if first < 0 {
				first = m
			} else {
				uf.Union(first, m)
			}
		}
	}
	return cluster.Build(uf), nil
}

// Pair-progress section format:
//
//	#pairs	<candidate>	next=<pass>	n=<count>
//	<a>	<b>

func encodePairs(w io.Writer, candidate string, nextPass int, pairs []cluster.Pair) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#pairs\t%s\tnext=%d\tn=%d\n", escapeField(candidate), nextPass, len(pairs))
	for _, p := range pairs {
		fmt.Fprintf(bw, "%d\t%d\n", p.A, p.B)
	}
	return bw.Flush()
}

func parsePairs(data []byte, candidate string, nextPass int) ([]cluster.Pair, error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) == 0 {
		return nil, errors.New("empty pairs section")
	}
	h := strings.Split(lines[0], "\t")
	if len(h) != 4 || h[0] != "#pairs" {
		return nil, errors.New("malformed pairs header")
	}
	if unescapeField(h[1]) != candidate {
		return nil, fmt.Errorf("pairs section for %q, manifest says %q", unescapeField(h[1]), candidate)
	}
	next, err := headerInt(h[2], "next")
	if err != nil || next != nextPass {
		return nil, fmt.Errorf("pairs pass mismatch (header %s, manifest %d)", h[2], nextPass)
	}
	n, err := headerInt(h[3], "n")
	if err != nil || n != len(lines)-1 {
		return nil, fmt.Errorf("pairs count mismatch (header %s, %d rows)", h[3], len(lines)-1)
	}
	pairs := make([]cluster.Pair, 0, n)
	for i, line := range lines[1:] {
		as, bs, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("pairs row %d: malformed", i+1)
		}
		a, err1 := strconv.Atoi(as)
		b, err2 := strconv.Atoi(bs)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pairs row %d: bad pair %q", i+1, line)
		}
		pairs = append(pairs, cluster.MakePair(a, b))
	}
	return pairs, nil
}

func headerInt(s, key string) (int, error) {
	rest, ok := strings.CutPrefix(s, key+"=")
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	return strconv.Atoi(rest)
}
