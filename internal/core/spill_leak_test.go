package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/extsort"
)

// A spill run file is the scratch of one key pass: the pass removes
// its runs when its stream closes (at its end, on an interruption, on
// an error), and an abandoned sort discards the runs it wrote. So no
// run file outlives its pass, and a pinned SpillDir holds none after
// any run. Leftovers of a killed process are swept by the next run
// over the directory.

// runFiles returns the .run files in dir — after a run, any one of
// them is a leak.
func runFiles(t *testing.T, dir string) []string {
	t.Helper()
	runs, err := filepath.Glob(filepath.Join(dir, "*.run"))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func spillLeakFixture(t *testing.T) (*KeyGenResult, *config.Config) {
	t.Helper()
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustValidate(t, config.DataSet1(5))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return kg, cfg
}

// failAfterFS is an extsort.FS whose nth Create fails — the
// deterministic stand-in for a sort abandoned mid-way (I/O fault,
// budget poll, cancellation: all three take the same abandon path)
// with some run files already on disk.
type failAfterFS struct {
	extsort.FS
	failAt  int
	created int
}

var errInjectedCreate = errors.New("injected create failure")

func (f *failAfterFS) Create(name string) (io.WriteCloser, error) {
	f.created++
	if f.created >= f.failAt && strings.HasSuffix(name, ".run") {
		return nil, errInjectedCreate
	}
	return f.FS.Create(name)
}

// A sort abandoned after writing some of its run files must discard
// them, or every interrupted job would leak disk.
func TestSpillNoLeakOnAbandonedSort(t *testing.T) {
	kg, cfg := spillLeakFixture(t)
	dir := t.TempDir()
	fs := &failAfterFS{FS: extsort.OSFS(), failAt: 4}
	_, err := DetectContext(context.Background(), kg, cfg, Options{
		SpillThresholdRows: 1,
		SpillDir:           dir,
		SpillFS:            fs,
	})
	if !errors.Is(err, errInjectedCreate) {
		t.Fatalf("err = %v, want the injected create failure", err)
	}
	if fs.created < 4 {
		t.Fatalf("fixture too small: only %d creates before the injected failure", fs.created)
	}
	if left := runFiles(t, dir); len(left) > 0 {
		t.Errorf("abandoned sort leaked %d run file(s): %v", len(left), left)
	}
}

// A run interrupted by its comparison budget mid-stream, after some
// passes completed, leaves no run file: the interrupted pass removes
// its runs as it stops.
func TestSpillNoLeakOnBudgetInterrupt(t *testing.T) {
	kg, cfg := spillLeakFixture(t)
	dir := t.TempDir()
	res, err := DetectContext(context.Background(), kg, cfg, Options{
		SpillThresholdRows: 1,
		SpillDir:           dir,
		Limits:             Limits{MaxComparisons: 200},
	})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("err = %v, want ErrLimitExceeded", err)
	}
	if res == nil || res.Incomplete == nil {
		t.Fatal("interrupted run returned no partial result")
	}
	if left := runFiles(t, dir); len(left) > 0 {
		t.Errorf("budget-interrupted run leaked %d run file(s): %v", len(left), left)
	}
}

// Leftovers of a process killed mid-pass are swept when the next run
// spills into the directory. Non-run files are never touched.
func TestSpillSweepsCrashOrphans(t *testing.T) {
	kg, cfg := spillLeakFixture(t)
	dir := t.TempDir()
	stray := filepath.Join(dir, "deadbeef-0007.run")
	if err := os.WriteFile(stray, []byte("SXNMRUN1 partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	bystander := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(bystander, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DetectContext(context.Background(), kg, cfg, Options{
		SpillThresholdRows: 1,
		SpillDir:           dir,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("orphaned run file survived the sweep (stat err = %v)", err)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Errorf("sweep touched a non-run file: %v", err)
	}
	if left := runFiles(t, dir); len(left) > 0 {
		t.Errorf("completed run left %d run file(s): %v", len(left), left)
	}
}

// passFS tracks the run files alive on disk and records a violation
// whenever a run is created while another (candidate, pass)'s runs
// still exist — the one-pass lifetime, observed at the FS seam.
type passFS struct {
	extsort.FS
	live       map[string]string // path -> pass prefix
	passes     map[string]bool
	violations []string
}

// passOf is a run file's (candidate, pass) prefix: <c…>-p<k> before
// the -r<N>.run suffix extsort appends.
func passOf(name string) string {
	base := filepath.Base(name)
	return base[:strings.LastIndex(base, "-r")]
}

func (f *passFS) Create(name string) (io.WriteCloser, error) {
	if strings.HasSuffix(name, ".run") {
		p := passOf(name)
		for other, q := range f.live {
			if q != p {
				f.violations = append(f.violations, fmt.Sprintf("%s created while %s is on disk", filepath.Base(name), filepath.Base(other)))
			}
		}
		f.live[name] = p
		f.passes[p] = true
	}
	return f.FS.Create(name)
}

func (f *passFS) Remove(name string) error {
	delete(f.live, name)
	return f.FS.Remove(name)
}

// TestSpillRunsLiveForOnePass drives a multi-candidate, multi-pass run
// through a pinned SpillDir: pass p's runs must be removed before pass
// p+1 creates its first run, and the directory must end empty of runs.
func TestSpillRunsLiveForOnePass(t *testing.T) {
	kg, cfg := spillLeakFixture(t)
	dir := t.TempDir()
	fs := &passFS{FS: extsort.OSFS(), live: map[string]string{}, passes: map[string]bool{}}
	if _, err := DetectContext(context.Background(), kg, cfg, Options{
		SpillThresholdRows: 7,
		SpillDir:           dir,
		SpillFS:            fs,
	}); err != nil {
		t.Fatal(err)
	}
	if len(fs.passes) < 2 {
		t.Fatalf("fixture spilled %d pass(es); the lifetime check needs several", len(fs.passes))
	}
	for _, v := range fs.violations {
		t.Error(v)
	}
	if len(fs.live) > 0 {
		t.Errorf("%d run file(s) never removed", len(fs.live))
	}
	if left := runFiles(t, dir); len(left) > 0 {
		t.Errorf("completed run left %d run file(s): %v", len(left), left)
	}
}
