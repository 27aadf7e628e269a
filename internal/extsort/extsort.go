// Package extsort implements a generic external merge sort: records
// are buffered in memory up to a configured bound, sorted runs are
// spilled to checksummed run files, and a k-way heap merge streams
// them back in global order. The package makes one hard promise:
// corrupt run files produce typed errors (*CorruptError, matchable
// with errors.Is(err, ErrCorrupt)), never silently wrong records.
// Every record carries its own CRC32, verified before it is decoded,
// and each run file ends in a count + whole-run checksum footer, so
// bit flips, torn writes, and silent truncation are all caught.
//
// Run files use a compact framed format:
//
//	header   8-byte magic "SXNMRUN1"
//	record   uvarint(len(payload)+1) | crc32(payload) LE | payload
//	footer   uvarint 0 | uvarint(record count) | crc32(all payloads) LE
//
// The +1 on the length keeps zero-length payloads representable while
// reserving the single zero byte as the footer marker.
package extsort

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FS abstracts the filesystem run files live on so tests can inject
// faults (torn writes, silently truncated reads) without touching real
// I/O. A nil Config.FS means the real filesystem (OSFS).
type FS interface {
	MkdirAll(dir string) error
	Create(name string) (io.WriteCloser, error)
	Open(name string) (io.ReadCloser, error)
	Remove(name string) error
}

type osFS struct{}

func (osFS) MkdirAll(dir string) error                  { return os.MkdirAll(dir, 0o755) }
func (osFS) Create(name string) (io.WriteCloser, error) { return os.Create(name) }
func (osFS) Open(name string) (io.ReadCloser, error)    { return os.Open(name) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }

// ReadDir lists the file names in dir; see DirLister.
func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// OSFS returns the real filesystem.
func OSFS() FS { return osFS{} }

// DirLister is the optional FS extension that lists a directory's
// files; the spill layer uses it to sweep orphaned run files left by a
// crashed process. An FS without it simply skips the sweep.
type DirLister interface {
	ReadDir(dir string) ([]string, error)
}

// ErrCorrupt matches (via errors.Is) every way a run file can be bad:
// missing or wrong magic, torn or bit-flipped records, truncation,
// record-count or checksum mismatches, trailing garbage, records that
// fail to decode, and run-internal sort-order violations.
var ErrCorrupt = errors.New("extsort: corrupt run file")

// CorruptError pinpoints what was wrong with which run file.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("extsort: corrupt run file %s: %s", e.Path, e.Reason)
}

func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

const (
	runMagic              = "SXNMRUN1"
	defaultMaxRecordBytes = 64 << 20
)

// Config parameterizes one external sort. Encode and Decode define the
// record codec; Decode must not retain the payload slice (it is
// reused between records). Less must be a strict weak ordering; for
// byte-identical merged output it should be a total order — records
// that compare equal both ways keep only their run-index order.
type Config[T any] struct {
	// Dir receives the run files; created if missing.
	Dir string
	// Prefix names this sort's run files: <Prefix>-r<N>.run.
	Prefix string
	// MaxInMemory bounds the records buffered before a sorted run is
	// spilled — the sort's working-set bound. Must be positive.
	MaxInMemory int
	// MaxRecordBytes caps one record's payload so a corrupt length
	// prefix is rejected before any allocation. 0 means 64 MiB.
	MaxRecordBytes int
	// FS is the filesystem run files live on; nil means the real one.
	FS     FS
	Encode func(dst []byte, rec T) []byte
	Decode func(payload []byte) (T, error)
	Less   func(a, b T) bool
}

func (c *Config[T]) normalize() error {
	if c.Dir == "" || c.MaxInMemory <= 0 || c.Encode == nil || c.Decode == nil || c.Less == nil {
		return errors.New("extsort: Config needs Dir, MaxInMemory > 0, Encode, Decode, and Less")
	}
	if c.FS == nil {
		c.FS = OSFS()
	}
	if c.MaxRecordBytes <= 0 {
		c.MaxRecordBytes = defaultMaxRecordBytes
	}
	return nil
}

// Stats counts a Sorter's spill work.
type Stats struct {
	RunsWritten  int
	Records      int64
	BytesWritten int64
}

// Sorter accumulates records and spills sorted runs. Typical use:
// Add every record, then Merge to stream them back in order.
type Sorter[T any] struct {
	cfg     Config[T]
	buf     []T
	scratch []byte
	runs    []string // run file names, relative to cfg.Dir
	stats   Stats
	err     error
}

// New validates the configuration, creates the run directory, and
// returns an empty Sorter.
func New[T any](cfg Config[T]) (*Sorter[T], error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("extsort: create %s: %w", cfg.Dir, err)
	}
	return &Sorter[T]{cfg: cfg, buf: make([]T, 0, cfg.MaxInMemory)}, nil
}

// Add buffers one record, spilling a sorted run once MaxInMemory
// records are pending. Errors are sticky.
func (s *Sorter[T]) Add(rec T) error {
	if s.err != nil {
		return s.err
	}
	s.buf = append(s.buf, rec)
	if len(s.buf) >= s.cfg.MaxInMemory {
		return s.spill()
	}
	return nil
}

func (s *Sorter[T]) spill() error {
	sort.Slice(s.buf, func(i, j int) bool { return s.cfg.Less(s.buf[i], s.buf[j]) })
	name := fmt.Sprintf("%s-r%04d.run", s.cfg.Prefix, len(s.runs))
	bytes, err := s.writeRun(name)
	if err != nil {
		s.err = err
		return err
	}
	s.runs = append(s.runs, name)
	s.stats.RunsWritten++
	s.stats.Records += int64(len(s.buf))
	s.stats.BytesWritten += bytes
	s.buf = s.buf[:0]
	return nil
}

// writeRun writes the sorted buffer as one run file and returns its
// size in bytes.
func (s *Sorter[T]) writeRun(name string) (int64, error) {
	path := filepath.Join(s.cfg.Dir, name)
	f, err := s.cfg.FS.Create(path)
	if err != nil {
		return 0, fmt.Errorf("extsort: create run %s: %w", path, err)
	}
	cw := &countWriter{w: f}
	w := bufio.NewWriter(cw)
	crc := crc32.NewIEEE()
	var frame [binary.MaxVarintLen64]byte
	var sum [4]byte
	fail := func(err error) (int64, error) {
		f.Close()
		s.cfg.FS.Remove(path) // a torn run is nobody's; Discard cannot see it
		return 0, fmt.Errorf("extsort: write run %s: %w", path, err)
	}
	if _, err := w.WriteString(runMagic); err != nil {
		return fail(err)
	}
	for _, rec := range s.buf {
		s.scratch = s.cfg.Encode(s.scratch[:0], rec)
		n := binary.PutUvarint(frame[:], uint64(len(s.scratch))+1)
		binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(s.scratch))
		if _, err := w.Write(frame[:n]); err != nil {
			return fail(err)
		}
		if _, err := w.Write(sum[:]); err != nil {
			return fail(err)
		}
		if _, err := w.Write(s.scratch); err != nil {
			return fail(err)
		}
		crc.Write(s.scratch)
	}
	if err := w.WriteByte(0); err != nil { // footer marker: uvarint 0
		return fail(err)
	}
	n := binary.PutUvarint(frame[:], uint64(len(s.buf)))
	if _, err := w.Write(frame[:n]); err != nil {
		return fail(err)
	}
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		s.cfg.FS.Remove(path)
		return 0, fmt.Errorf("extsort: close run %s: %w", path, err)
	}
	return cw.n, nil
}

// Merge spills any buffered tail as a final run and returns an
// Iterator merging every run. The Sorter must not be Added to
// afterwards; Discard it once the Iterator is closed to remove the
// run files.
func (s *Sorter[T]) Merge() (*Iterator[T], error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(s.buf) > 0 {
		if err := s.spill(); err != nil {
			return nil, err
		}
	}
	return mergeRuns(s.cfg, s.runs)
}

// Stats returns the spill counters accumulated so far.
func (s *Sorter[T]) Stats() Stats { return s.stats }

// Discard removes every run file the Sorter has written and drops the
// buffered tail, releasing the sort's disk footprint. Call it once the
// merged stream is closed, or when a sort is abandoned — an
// interrupted or failed Add/Merge — so no run leaves files behind.
// Safe after a sticky error and idempotent; the Sorter must not be
// used afterwards. Returns the first removal error, if any (the
// remaining files are still attempted).
func (s *Sorter[T]) Discard() error {
	var first error
	for _, name := range s.runs {
		if err := s.cfg.FS.Remove(filepath.Join(s.cfg.Dir, name)); err != nil && first == nil {
			first = err
		}
	}
	s.runs = nil
	s.buf = nil
	if s.err == nil {
		s.err = errors.New("extsort: sorter discarded")
	}
	return first
}

// mergeRuns opens the named run files under cfg.Dir and k-way merges
// them. Each reader verifies framing, per-record checksums, the
// footer's count and whole-run checksum, and run-internal sort order
// while streaming; any violation is a *CorruptError. Ties between runs
// break by run index, so the merged order is fully deterministic
// whenever Less is a total order.
func mergeRuns[T any](cfg Config[T], runs []string) (*Iterator[T], error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	it := &Iterator[T]{cfg: cfg}
	for _, name := range runs {
		src, err := newRunReader(&it.cfg, name)
		if err != nil {
			it.Close()
			return nil, err
		}
		it.srcs = append(it.srcs, src)
	}
	for i, src := range it.srcs {
		rec, ok, err := src.next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if ok {
			it.h = append(it.h, heapEntry[T]{rec: rec, src: i})
			it.up(len(it.h) - 1)
		}
	}
	return it, nil
}

// heapEntry is one merge-heap slot: the head record of source src.
type heapEntry[T any] struct {
	rec T
	src int
}

// Iterator streams the merged record sequence. Errors are sticky: the
// first corruption or read failure poisons the rest of the stream.
type Iterator[T any] struct {
	cfg    Config[T]
	srcs   []*runReader[T]
	h      []heapEntry[T]
	err    error
	closed bool
}

// entryLess is the heap order: Less on records, run index on ties —
// a strict total order as long as no two entries share a src.
func (it *Iterator[T]) entryLess(a, b heapEntry[T]) bool {
	if it.cfg.Less(a.rec, b.rec) {
		return true
	}
	if it.cfg.Less(b.rec, a.rec) {
		return false
	}
	return a.src < b.src
}

func (it *Iterator[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !it.entryLess(it.h[i], it.h[p]) {
			break
		}
		it.h[i], it.h[p] = it.h[p], it.h[i]
		i = p
	}
}

func (it *Iterator[T]) down(i int) {
	n := len(it.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && it.entryLess(it.h[r], it.h[l]) {
			m = r
		}
		if !it.entryLess(it.h[m], it.h[i]) {
			return
		}
		it.h[i], it.h[m] = it.h[m], it.h[i]
		i = m
	}
}

// Next returns the globally smallest remaining record; the bool is
// false at a clean end of stream.
func (it *Iterator[T]) Next() (T, bool, error) {
	var zero T
	if it.err != nil {
		return zero, false, it.err
	}
	if len(it.h) == 0 {
		return zero, false, nil
	}
	top := it.h[0]
	rec, ok, err := it.srcs[top.src].next()
	if err != nil {
		it.err = err
		return zero, false, err
	}
	if ok {
		it.h[0] = heapEntry[T]{rec: rec, src: top.src}
	} else {
		last := len(it.h) - 1
		it.h[0] = it.h[last]
		it.h = it.h[:last]
	}
	if len(it.h) > 0 {
		it.down(0)
	}
	return top.rec, true, nil
}

// BytesRead totals the bytes consumed from run files so far.
func (it *Iterator[T]) BytesRead() int64 {
	var n int64
	for _, s := range it.srcs {
		n += s.cr.n
	}
	return n
}

// Close releases every run-file handle. Safe to call more than once.
func (it *Iterator[T]) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	var first error
	for _, s := range it.srcs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	it.h = nil
	return first
}

// runReader streams and verifies one run file.
type runReader[T any] struct {
	cfg     *Config[T]
	path    string
	f       io.ReadCloser
	cr      *countReader
	br      *bufio.Reader
	buf     []byte
	crc     uint32 // running whole-run CRC (crc32.Update)
	seen    int64
	prev    T
	hasPrev bool
	done    bool
}

func newRunReader[T any](cfg *Config[T], name string) (*runReader[T], error) {
	path := filepath.Join(cfg.Dir, name)
	f, err := cfg.FS.Open(path)
	if err != nil {
		return nil, fmt.Errorf("extsort: open run %s: %w", path, err)
	}
	cr := &countReader{r: f}
	r := &runReader[T]{cfg: cfg, path: path, f: f, cr: cr, br: bufio.NewReader(cr)}
	var magic [len(runMagic)]byte
	if _, err := io.ReadFull(r.br, magic[:]); err != nil {
		f.Close()
		return nil, r.readErr("missing or short header", err)
	}
	if string(magic[:]) != runMagic {
		f.Close()
		return nil, r.corrupt("bad magic")
	}
	return r, nil
}

func (r *runReader[T]) corrupt(reason string) error {
	return &CorruptError{Path: r.path, Reason: reason}
}

// readErr classifies a read failure: EOF-shaped errors mean the file
// ended where records should be — corruption — while anything else is
// a genuine I/O error, wrapped with the run path.
func (r *runReader[T]) readErr(context string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return r.corrupt(context)
	}
	return fmt.Errorf("extsort: read run %s: %w", r.path, err)
}

func (r *runReader[T]) next() (T, bool, error) {
	var zero T
	if r.done {
		return zero, false, nil
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if strings.Contains(err.Error(), "overflow") {
			return zero, false, r.corrupt("length varint overflows")
		}
		return zero, false, r.readErr("truncated before footer", err)
	}
	if n == 0 {
		return zero, false, r.finish()
	}
	size := n - 1
	if size > uint64(r.cfg.MaxRecordBytes) {
		return zero, false, r.corrupt(fmt.Sprintf("record of %d bytes exceeds the %d-byte cap", size, r.cfg.MaxRecordBytes))
	}
	var sum [4]byte
	if _, err := io.ReadFull(r.br, sum[:]); err != nil {
		return zero, false, r.readErr("torn record header", err)
	}
	if uint64(cap(r.buf)) < size {
		r.buf = make([]byte, size)
	}
	r.buf = r.buf[:size]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return zero, false, r.readErr("torn record payload", err)
	}
	if crc32.ChecksumIEEE(r.buf) != binary.LittleEndian.Uint32(sum[:]) {
		return zero, false, r.corrupt(fmt.Sprintf("record %d checksum mismatch", r.seen))
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, r.buf)
	rec, err := r.cfg.Decode(r.buf)
	if err != nil {
		return zero, false, r.corrupt(fmt.Sprintf("record %d decode: %v", r.seen, err))
	}
	if r.hasPrev && r.cfg.Less(rec, r.prev) {
		return zero, false, r.corrupt(fmt.Sprintf("record %d out of order", r.seen))
	}
	r.prev, r.hasPrev = rec, true
	r.seen++
	return rec, true, nil
}

// finish verifies the footer against the streamed content and
// requires a clean EOF after it.
func (r *runReader[T]) finish() error {
	count, err := binary.ReadUvarint(r.br)
	if err != nil {
		return r.readErr("truncated footer", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r.br, sum[:]); err != nil {
		return r.readErr("truncated footer", err)
	}
	if int64(count) != r.seen {
		return r.corrupt(fmt.Sprintf("footer count %d, read %d records", count, r.seen))
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != r.crc {
		return r.corrupt("whole-run checksum mismatch")
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		if err != nil {
			return r.readErr("trailing bytes after footer", err)
		}
		return r.corrupt("trailing bytes after footer")
	}
	r.done = true
	return nil
}

type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
