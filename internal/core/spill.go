package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/extsort"
	"repro/internal/obs"
	"repro/internal/similarity"
)

// This file is the external pass sort: candidates whose tables exceed
// Options.SpillThresholdRows sort each key pass with an external merge
// sort (internal/extsort) and stream the merged rows into the sliding
// window, so the sort working set is bounded by the threshold and the
// window only ever holds its own extent of decoded rows (the GK table
// itself stays resident). A pass's run files are its own scratch,
// removed when its stream closes. The comparator, the enumeration order, and the decoded rows
// are exactly those of the in-memory path, which is what makes the
// differential suite's byte-identical claim hold.

// gkRowCompare is THE sort order of one key pass — byte-wise
// comparison of the pass key with ties broken by element ID. EIDs are
// unique per table (ReadGK rejects a repeated one), so this is a total
// order: the in-memory sort, the run-file writer, and the k-way merge
// all produce the identical permutation, stable or not. passKey.compare
// is its body, for sorts that carry the key beside the row.
func gkRowCompare(a, b *GKRow, pass int) int {
	return a.passKey(pass).compare(b.passKey(pass))
}

// gkRowLess is gkRowCompare as the strict order extsort takes.
func gkRowLess(a, b *GKRow, pass int) bool { return gkRowCompare(a, b, pass) < 0 }

// passKey is a row's sort position in one pass: its pass key and EID.
type passKey struct {
	key string
	eid int
}

func (r *GKRow) passKey(pass int) passKey { return passKey{r.Keys[pass], r.EID} }

func (a passKey) compare(b passKey) int {
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.eid, b.eid)
}

// rowSource feeds one key pass's sorted rows to the sliding window.
// next returns nil at the end of the stream; close releases any
// underlying run-file handles and may be called more than once.
type rowSource interface {
	next() (*GKRow, error)
	close() error
}

// memSource streams the resident table in a pass's sorted order — the
// in-memory path expressed as a rowSource.
type memSource struct {
	order []sortedRow
	pos   int
}

func (m *memSource) next() (*GKRow, error) {
	if m.pos >= len(m.order) {
		return nil, nil
	}
	r := m.order[m.pos].row
	m.pos++
	return r, nil
}

func (m *memSource) close() error { return nil }

// rowRing holds the last `keep` streamed rows indexed by absolute
// stream position — exactly the extent the window sweep may revisit.
// Rows referenced by in-flight pair batches stay alive through the
// batch's own pointers; the ring only bounds what the enumerator can
// still reach.
type rowRing struct {
	buf  []*GKRow
	mask int
}

func newRowRing(keep int) *rowRing {
	n := 1
	for n < keep {
		n <<= 1
	}
	return &rowRing{buf: make([]*GKRow, n), mask: n - 1}
}

func (r *rowRing) push(i int, row *GKRow) { r.buf[i&r.mask] = row }
func (r *rowRing) at(i int) *GKRow        { return r.buf[i&r.mask] }

// errMalformedRow rejects spilled row bytes that do not decode
// cleanly; it only ever surfaces wrapped in an extsort *CorruptError
// (the per-record CRC makes genuine corruption vanishingly unlikely to
// reach the decoder, but defense in depth is cheap).
var errMalformedRow = errors.New("malformed spilled GK row")

// appendGKRow encodes one GK row into dst. The encoding is canonical
// and injective over the row's observable fields: everything is
// length-prefixed, integers are zig-zag varints, and the descendant
// map is written in strictly increasing name order — equal rows encode
// to equal bytes and distinct rows to distinct bytes.
func appendGKRow(dst []byte, r *GKRow) []byte {
	dst = binary.AppendVarint(dst, int64(r.EID))
	dst = binary.AppendUvarint(dst, uint64(len(r.Keys)))
	for _, k := range r.Keys {
		dst = appendSpillString(dst, k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.OD)))
	for _, vals := range r.OD {
		dst = binary.AppendUvarint(dst, uint64(len(vals)))
		for _, v := range vals {
			dst = appendSpillString(dst, v)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Desc)))
	if len(r.Desc) > 0 {
		names := make([]string, 0, len(r.Desc))
		for name := range r.Desc {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			dst = appendSpillString(dst, name)
			eids := r.Desc[name]
			dst = binary.AppendUvarint(dst, uint64(len(eids)))
			for _, e := range eids {
				dst = binary.AppendVarint(dst, int64(e))
			}
		}
	}
	return dst
}

func appendSpillString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// spillDec decodes the encoding above with a sticky error; collection
// counts are bounded by the remaining bytes (every element costs at
// least one byte) so corrupt counts cannot drive allocations.
type spillDec struct {
	b   []byte
	off int
	err error
}

func (d *spillDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = errMalformedRow
		return 0
	}
	d.off += n
	return v
}

func (d *spillDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.err = errMalformedRow
		return 0
	}
	d.off += n
	return v
}

func (d *spillDec) count() int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.b)-d.off) {
		d.err = errMalformedRow
		return 0
	}
	return int(v)
}

func (d *spillDec) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// decodeGKRow rebuilds a row from its canonical encoding. Empty
// collections decode as nil (the canonical in-memory shape for
// everything detection observes through len), descendant names must be
// strictly increasing, and every byte must be consumed — so decode is
// the exact inverse of appendGKRow on encoder-produced bytes and
// rejects everything else.
func decodeGKRow(p []byte) (*GKRow, error) {
	d := &spillDec{b: p}
	r := &GKRow{EID: int(d.varint())}
	if n := d.count(); n > 0 {
		r.Keys = make([]string, n)
		for i := range r.Keys {
			r.Keys[i] = d.str()
		}
	}
	if n := d.count(); n > 0 {
		r.OD = make([][]string, n)
		for i := range r.OD {
			if m := d.count(); m > 0 {
				r.OD[i] = make([]string, m)
				for j := range r.OD[i] {
					r.OD[i][j] = d.str()
				}
			}
		}
	}
	if n := d.count(); n > 0 {
		r.Desc = make(map[string][]int, n)
		prev := ""
		for i := 0; i < n; i++ {
			name := d.str()
			if d.err == nil && i > 0 && name <= prev {
				d.err = errMalformedRow // non-canonical map order
			}
			prev = name
			var eids []int
			if m := d.count(); m > 0 {
				eids = make([]int, m)
				for j := range eids {
					eids[j] = int(d.varint())
				}
			}
			if d.err != nil {
				return nil, d.err
			}
			r.Desc[name] = eids
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(p) {
		return nil, errMalformedRow
	}
	return r, nil
}

// spillState is the run-level spill context shared by all candidates:
// the directory (a private temp dir unless Options.SpillDir pins one),
// the filesystem, and the obs counters. The directory fields are
// mutex-guarded, so the state is safe to share across goroutines.
type spillState struct {
	threshold int
	fs        extsort.FS
	m         *obs.Metrics

	mu      sync.Mutex
	dir     string
	temp    bool
	ready   bool
	initErr error
}

func newSpillState(opts Options, m *obs.Metrics) *spillState {
	fs := opts.SpillFS
	if fs == nil {
		fs = extsort.OSFS()
	}
	return &spillState{threshold: opts.SpillThresholdRows, fs: fs, m: m, dir: opts.SpillDir}
}

// ensure lazily creates the spill directory the first time any
// candidate actually spills, so runs whose tables all fit under the
// threshold touch no disk at all.
func (st *spillState) ensure() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ready || st.initErr != nil {
		return st.initErr
	}
	if st.dir == "" {
		d, err := os.MkdirTemp("", "sxnm-spill-")
		if err != nil {
			st.initErr = fmt.Errorf("create spill dir: %w", err)
			return st.initErr
		}
		st.dir = d
		st.temp = true
	}
	if err := st.fs.MkdirAll(st.dir); err != nil {
		st.initErr = fmt.Errorf("create spill dir %s: %w", st.dir, err)
		return st.initErr
	}
	st.sweepOrphans()
	st.ready = true
	return nil
}

// sweepOrphans removes every run file in the spill directory. Each
// pass removes its own runs when its stream closes, so a run file found
// before this run has written any is a leftover of a process that was
// killed mid-pass. Runs only when the filesystem can list directories
// (the real one can); called once per run, before this run writes any
// file, so it never races with its own sorts. Best-effort: a failed
// removal costs disk, not correctness.
func (st *spillState) sweepOrphans() {
	ls, ok := st.fs.(extsort.DirLister)
	if !ok {
		return
	}
	names, err := ls.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".run") {
			_ = st.fs.Remove(filepath.Join(st.dir, name))
		}
	}
}

// cleanup removes a private temp spill directory; a caller-provided
// SpillDir is kept (empty of run files, which each pass removes).
func (st *spillState) cleanup() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.temp {
		os.RemoveAll(st.dir)
	}
}

// candSpiller binds one candidate's table to the run-level spill
// state: the codec (with its decode-time validation and descendant
// resolution) and the file prefix of the candidate's runs.
type candSpiller struct {
	st      *spillState
	t       *GKTable
	useDesc bool
	descCS  []*cluster.ClusterSet // per table descendant type; see setDescTypes
	cache   *similarity.Cache
	nKeys   int
	nOD     int
	prefix  string
	// sketch re-derives the fast-path value sketches per decoded row
	// (set when the run uses the threshold-aware filter); sketches are
	// detection-time state like the descendant lists, never serialized.
	sketch bool
}

func newCandSpiller(st *spillState, t *GKTable, useDesc bool, clusters map[string]*cluster.ClusterSet, cache *similarity.Cache) *candSpiller {
	h := fnv.New64a()
	io.WriteString(h, t.Candidate.Name)
	var descCS []*cluster.ClusterSet
	if useDesc {
		descCS = t.setDescTypes(clusters)
	}
	return &candSpiller{
		st: st, t: t, useDesc: useDesc, descCS: descCS, cache: cache,
		nKeys:  len(t.Candidate.CompiledKeys()),
		nOD:    len(t.fields),
		prefix: fmt.Sprintf("c%016x", h.Sum64()),
	}
}

// decodeRow rebuilds a streamed row and re-derives the detection-time
// fields — descendant cluster lists and interned sets — exactly as the
// resident path does, so a spilled row is observationally identical to
// the table row it was encoded from.
func (c *candSpiller) decodeRow(p []byte) (*GKRow, error) {
	r, err := decodeGKRow(p)
	if err != nil {
		return nil, err
	}
	if len(r.Keys) != c.nKeys || len(r.OD) != c.nOD {
		return nil, fmt.Errorf("row %d has %d keys and %d OD fields, candidate wants %d and %d",
			r.EID, len(r.Keys), len(r.OD), c.nKeys, c.nOD)
	}
	if c.useDesc && len(r.Desc) > 0 {
		r.desc = make([]descList, len(c.t.descTypes))
		resolveRowDesc(r, c.t.descTypes, c.descCS, nil)
		if c.cache != nil {
			internRowDescSets(r, c.cache)
		}
	}
	if c.sketch {
		c.t.sketchRow(r)
	}
	return r, nil
}

func (c *candSpiller) config(pass int) extsort.Config[*GKRow] {
	return extsort.Config[*GKRow]{
		Dir:         c.st.dir,
		Prefix:      fmt.Sprintf("%s-p%d", c.prefix, pass),
		MaxInMemory: c.st.threshold,
		FS:          c.st.fs,
		Encode:      func(dst []byte, r *GKRow) []byte { return appendGKRow(dst, r) },
		Decode:      c.decodeRow,
		Less:        func(a, b *GKRow) bool { return gkRowLess(a, b, pass) },
	}
}

// source externally sorts one key pass and returns the merged row
// stream; closing the stream removes the pass's run files. Spill work
// is accounted to obs metrics and a spill span only — Stats never
// sees it, keeping spilled and in-memory Stats byte-identical.
func (c *candSpiller) source(pass int, parent *obs.Span, bud *budget) (rowSource, error) {
	wrap := func(err error) error {
		return fmt.Errorf("core: candidate %q: spill pass %d: %w", c.t.Candidate.Name, pass, err)
	}
	start := time.Now()
	if err := c.st.ensure(); err != nil {
		return nil, wrap(err)
	}
	srt, err := extsort.New(c.config(pass))
	if err != nil {
		return nil, wrap(err)
	}
	for i := range c.t.Rows {
		// The sort spills to disk as it goes; poll so deadlines and
		// cancellation interrupt it at the usual cadence. The cause is
		// returned bare — the caller turns it into the same graceful
		// interruption as a budget breach in the pair loop. Either way
		// the abandoned sort's partial run files are removed.
		if bud != nil {
			if err := bud.poll(i + 1); err != nil {
				srt.Discard()
				return nil, err
			}
		}
		if err := srt.Add(&c.t.Rows[i]); err != nil {
			srt.Discard()
			return nil, wrap(err)
		}
	}
	it, err := srt.Merge()
	if err != nil {
		srt.Discard()
		return nil, wrap(err)
	}
	ss := srt.Stats()
	if m := c.st.m; m != nil {
		m.SpillRuns.Add(int64(ss.RunsWritten))
		m.SpillBytesWritten.Add(ss.BytesWritten)
		m.SpillWallNanos.Add(int64(time.Since(start)))
	}
	if sp := parent.Child(obs.SpanSpill,
		obs.String(obs.AttrCandidate, c.t.Candidate.Name),
		obs.Int(obs.AttrPass, pass),
		obs.Int(obs.AttrSpillRuns, ss.RunsWritten),
		obs.Int64(obs.AttrSpillBytes, ss.BytesWritten)); sp != nil {
		sp.End()
	}
	return &spillSource{c: c, srt: srt, it: it}, nil
}

// spillSource adapts the merge iterator to rowSource, wrapping errors
// with the candidate, and on close flushes read-byte counts and
// removes the pass's run files.
type spillSource struct {
	c      *candSpiller
	srt    *extsort.Sorter[*GKRow]
	it     *extsort.Iterator[*GKRow]
	closed bool
}

func (s *spillSource) next() (*GKRow, error) {
	r, ok, err := s.it.Next()
	if err != nil {
		return nil, fmt.Errorf("core: candidate %q: spill: %w", s.c.t.Candidate.Name, err)
	}
	if !ok {
		return nil, nil
	}
	return r, nil
}

// close ends the pass's spill: every exit of the pass loop (its end,
// an interruption, a mid-stream error) calls it, so no run file
// outlives its pass. Removal is best-effort — a failed removal costs
// disk until the next run's orphan sweep, never correctness.
func (s *spillSource) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if m := s.c.st.m; m != nil {
		m.SpillBytesRead.Add(s.it.BytesRead())
	}
	err := s.it.Close()
	s.srt.Discard()
	return err
}
