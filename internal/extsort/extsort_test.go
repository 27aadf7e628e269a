package extsort

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stringConfig is the codec used throughout the tests: records are
// plain strings, ordered bytewise.
func stringConfig(dir string, maxInMemory int) Config[string] {
	return Config[string]{
		Dir:         dir,
		Prefix:      "t",
		MaxInMemory: maxInMemory,
		Encode:      func(dst []byte, rec string) []byte { return append(dst, rec...) },
		Decode:      func(payload []byte) (string, error) { return string(payload), nil },
		Less:        func(a, b string) bool { return a < b },
	}
}

// drain pulls every record out of the iterator.
func drain[T any](t *testing.T, it *Iterator[T]) []T {
	t.Helper()
	var out []T
	for {
		rec, ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

func TestSortRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var recs []string
	for i := 0; i < 100; i++ {
		n := rng.Intn(12)
		b := make([]byte, n)
		rng.Read(b)
		recs = append(recs, string(b))
	}
	recs = append(recs, "", "", "dup", "dup") // empty and duplicate payloads
	want := append([]string(nil), recs...)
	sort.Strings(want)

	for _, threshold := range []int{1, 2, 3, 7, 1000} {
		t.Run(fmt.Sprintf("maxInMemory=%d", threshold), func(t *testing.T) {
			s, err := New(stringConfig(t.TempDir(), threshold))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := s.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			it, err := s.Merge()
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			got := drain(t, it)
			if len(got) != len(want) {
				t.Fatalf("got %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
				}
			}
			wantRuns := (len(recs) + threshold - 1) / threshold
			if len(s.runs) != wantRuns || s.Stats().RunsWritten != wantRuns {
				t.Errorf("runs = %d (stats %d), want %d", len(s.runs), s.Stats().RunsWritten, wantRuns)
			}
			if s.Stats().Records != int64(len(recs)) {
				t.Errorf("stats records = %d, want %d", s.Stats().Records, len(recs))
			}
			if it.BytesRead() <= 0 {
				t.Errorf("BytesRead = %d, want > 0", it.BytesRead())
			}
		})
	}
}

func TestEmptyInput(t *testing.T) {
	s, err := New(stringConfig(t.TempDir(), 4))
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if got := drain(t, it); len(got) != 0 {
		t.Fatalf("empty sort yielded %d records", len(got))
	}
	if n := s.Stats().RunsWritten; n != 0 {
		t.Fatalf("empty sort wrote %d runs", n)
	}
}

func TestInvalidConfig(t *testing.T) {
	bad := []Config[string]{
		{},
		{Dir: "x", MaxInMemory: 0},
		{Dir: "x", MaxInMemory: 1}, // missing codec
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: New accepted an invalid configuration", i)
		}
	}
}

// TestStableTieBreak checks the determinism contract: records that
// compare equal come out in run-index order, which for one record per
// run is insertion order — exactly what sort.SliceStable would produce.
func TestStableTieBreak(t *testing.T) {
	type rec struct{ K, ID string }
	cfg := Config[rec]{
		Dir:         t.TempDir(),
		Prefix:      "t",
		MaxInMemory: 1, // one record per run: run index == insertion order
		Encode: func(dst []byte, r rec) []byte {
			dst = append(dst, byte(len(r.K)))
			dst = append(dst, r.K...)
			return append(dst, r.ID...)
		},
		Decode: func(p []byte) (rec, error) {
			n := int(p[0])
			return rec{K: string(p[1 : 1+n]), ID: string(p[1+n:])}, nil
		},
		Less: func(a, b rec) bool { return a.K < b.K },
	}
	in := []rec{{"b", "0"}, {"a", "1"}, {"b", "2"}, {"a", "3"}, {"a", "4"}}
	want := append([]rec(nil), in...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].K < want[j].K })

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range in {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := drain(t, it)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v (merge must match the stable sort)", i, got[i], want[i])
		}
	}
}

// writeRuns produces a small on-disk sort to corrupt: two runs over
// dir, returning the run file names and the merged reference output.
func writeRuns(t *testing.T, dir string) ([]string, []string) {
	t.Helper()
	s, err := New(stringConfig(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"delta", "alpha", "echo", "bravo", "", "charlie"} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	return s.runs, drain(t, it)
}

// mergeAll re-opens the runs and streams them to the end, returning
// the first error.
func mergeAll(dir string, runs []string) ([]string, error) {
	it, err := mergeRuns(stringConfig(dir, 3), runs)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []string
	for {
		rec, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, rec)
	}
}

// TestCorruptionEveryByteFlip flips every single byte of every run
// file in turn and demands a typed corruption error — never a wrong
// record sequence. This is the package's central promise.
func TestCorruptionEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	runs, want := writeRuns(t, dir)
	for _, name := range runs {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := range orig {
			for _, flip := range []byte{0x01, 0x80, 0xFF} {
				mut := append([]byte(nil), orig...)
				mut[off] ^= flip
				if err := os.WriteFile(path, mut, 0o644); err != nil {
					t.Fatal(err)
				}
				got, err := mergeAll(dir, runs)
				if err == nil {
					t.Fatalf("%s: flipping byte %d with %#x went undetected (got %d records)",
						name, off, flip, len(got))
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: flip at byte %d: error is not ErrCorrupt: %v", name, off, err)
				}
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Restored files still merge to the reference output.
	got, err := mergeAll(dir, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restored merge has %d records, want %d", len(got), len(want))
	}
}

// TestCorruptionEveryTruncation truncates each run file at every
// possible length and demands a typed corruption error.
func TestCorruptionEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	runs, _ := writeRuns(t, dir)
	for _, name := range runs {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(orig); cut++ {
			if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := mergeAll(dir, runs); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s truncated to %d bytes: want ErrCorrupt, got %v", name, cut, err)
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptionTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	runs, _ := writeRuns(t, dir)
	path := filepath.Join(dir, runs[0])
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte(nil), orig...), 'x'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mergeAll(dir, runs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: want ErrCorrupt, got %v", err)
	}
}

func TestMissingRunFile(t *testing.T) {
	dir := t.TempDir()
	runs, _ := writeRuns(t, dir)
	if err := os.Remove(filepath.Join(dir, runs[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := mergeAll(dir, runs); err == nil {
		t.Fatal("missing run file went undetected")
	}
}

func TestRecordSizeCap(t *testing.T) {
	dir := t.TempDir()
	cfg := stringConfig(dir, 2)
	cfg.MaxRecordBytes = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"ok", "fine"} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	// A reader with a smaller cap rejects the same records up front.
	tight := stringConfig(dir, 2)
	tight.MaxRecordBytes = 1
	it2, err := mergeRuns(tight, s.runs)
	if err == nil {
		defer it2.Close()
		_, _, err = it2.Next()
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized record: want ErrCorrupt, got %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "cap") {
		t.Fatalf("error should name the cap: %v", err)
	}
}

// tornFS fails every run write after the first byte, like a full disk.
type tornFS struct{ FS }

func (f tornFS) Create(name string) (io.WriteCloser, error) {
	w, err := f.FS.Create(name)
	return &tornWriter{w}, err
}

type tornWriter struct{ io.WriteCloser }

func (w *tornWriter) Write(p []byte) (int, error) {
	n, _ := w.WriteCloser.Write(p[:min(len(p), 1)])
	return n, errors.New("disk full")
}

// TestTornRunRemoved checks that a run whose write fails is removed
// by the writer itself: it is in no Sorter's run list, so Discard
// could never find it.
func TestTornRunRemoved(t *testing.T) {
	dir := t.TempDir()
	cfg := stringConfig(dir, 1)
	cfg.FS = tornFS{OSFS()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add("x"); err == nil {
		t.Fatal("a torn run write succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.run")); len(left) > 0 {
		t.Fatalf("torn run left on disk: %v", left)
	}
}
