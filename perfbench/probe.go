package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sxnm "repro"
	"repro/internal/checkpoint"
	"repro/internal/extsort"
)

// stamp identifies the machine and toolchain a result was measured on.
// Results with different stamps are not comparable.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func takeStamp() stamp {
	st := stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
	}
	if out, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		st.GoVersion = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memPoint is a runtime.MemStats reading at a layer boundary.
type memPoint struct {
	mallocs, totalAlloc, heapInuse uint64
	numGC                          uint32
}

func readMem() memPoint {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return memPoint{st.Mallocs, st.TotalAlloc, st.HeapInuse, st.NumGC}
}

// procCPU returns the user+system CPU time a live process has used so
// far, from /proc/<pid>/stat (clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns the peak resident set (VmHWM) of a live process in KB.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// ioCount accumulates the operations, bytes, syncs and time one class
// of file I/O took.
type ioCount struct {
	ops, bytes, syncs, nanos atomic.Int64
}

func (c *ioCount) timed(start time.Time) { c.nanos.Add(int64(time.Since(start))) }

// spillFS wraps the extsort filesystem seam to count and time run-file
// I/O. It forwards ReadDir so the orphan sweep still runs.
type spillFS struct {
	inner       extsort.FS
	write, read ioCount
}

func (f *spillFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }
func (f *spillFS) Remove(name string) error  { return f.inner.Remove(name) }

func (f *spillFS) ReadDir(dir string) ([]string, error) {
	if l, ok := f.inner.(extsort.DirLister); ok {
		return l.ReadDir(dir)
	}
	return nil, nil
}

func (f *spillFS) Create(name string) (io.WriteCloser, error) {
	start := time.Now()
	w, err := f.inner.Create(name)
	f.write.timed(start)
	if err != nil {
		return nil, err
	}
	f.write.ops.Add(1)
	return &countingWriter{w: w, c: &f.write}, nil
}

func (f *spillFS) Open(name string) (io.ReadCloser, error) {
	start := time.Now()
	r, err := f.inner.Open(name)
	f.read.timed(start)
	if err != nil {
		return nil, err
	}
	f.read.ops.Add(1)
	return &countingReader{r: r, c: &f.read}, nil
}

type countingWriter struct {
	w io.WriteCloser
	c *ioCount
}

func (w *countingWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.w.Write(p)
	w.c.timed(start)
	w.c.bytes.Add(int64(n))
	return n, err
}

func (w *countingWriter) Close() error {
	start := time.Now()
	defer w.c.timed(start)
	return w.w.Close()
}

type countingReader struct {
	r io.ReadCloser
	c *ioCount
}

func (r *countingReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.r.Read(p)
	r.c.timed(start)
	r.c.bytes.Add(int64(n))
	return n, err
}

func (r *countingReader) Close() error { return r.r.Close() }

// spoolFS wraps the daemon's checkpoint/spool seam to count and time
// writes by class: checkpoint sections, journal appends, and the
// remaining spool files (job, lease, outcome, report, metrics).
type spoolFS struct {
	inner                      sxnm.CheckpointFS
	checkpoint, journal, spool ioCount
}

func (f *spoolFS) class(path string) *ioCount {
	switch {
	case strings.HasSuffix(path, "journal.jsonl"):
		return &f.journal
	case strings.Contains(path, string(os.PathSeparator)+"checkpoint"):
		return &f.checkpoint
	}
	return &f.spool
}

func (f *spoolFS) MkdirAll(dir string) error {
	defer f.class(dir).timed(time.Now())
	return f.inner.MkdirAll(dir)
}

func (f *spoolFS) CreateTemp(dir, pattern string) (checkpoint.File, error) {
	c := f.class(dir + string(os.PathSeparator))
	start := time.Now()
	file, err := f.inner.CreateTemp(dir, pattern)
	c.timed(start)
	if err != nil {
		return nil, err
	}
	c.ops.Add(1)
	return &countingFile{File: file, c: c}, nil
}

func (f *spoolFS) OpenAppend(name string) (checkpoint.File, error) {
	c := f.class(name)
	start := time.Now()
	file, err := f.inner.OpenAppend(name)
	c.timed(start)
	if err != nil {
		return nil, err
	}
	c.ops.Add(1)
	return &countingFile{File: file, c: c}, nil
}

func (f *spoolFS) Rename(oldpath, newpath string) error {
	defer f.class(newpath).timed(time.Now())
	return f.inner.Rename(oldpath, newpath)
}

func (f *spoolFS) Remove(name string) error {
	defer f.class(name).timed(time.Now())
	return f.inner.Remove(name)
}

func (f *spoolFS) RemoveAll(path string) error {
	defer f.class(path).timed(time.Now())
	return f.inner.RemoveAll(path)
}

func (f *spoolFS) Link(oldname, newname string) error {
	defer f.class(newname).timed(time.Now())
	return f.inner.Link(oldname, newname)
}

func (f *spoolFS) SyncDir(dir string) error {
	c := f.class(dir + string(os.PathSeparator))
	defer c.timed(time.Now())
	c.syncs.Add(1)
	return f.inner.SyncDir(dir)
}

type countingFile struct {
	checkpoint.File
	c *ioCount
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.c.timed(start)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	defer f.c.timed(time.Now())
	f.c.syncs.Add(1)
	return f.File.Sync()
}

func (f *countingFile) Close() error {
	defer f.c.timed(time.Now())
	return f.File.Close()
}

// heapSampler records the peak in-use heap of this process while it
// runs, sampled every few milliseconds.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	if v := readMem().heapInuse; v > h.peak.Load() {
		h.peak.Store(v)
	}
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / 1e6
}
