package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/extsort"
	"repro/internal/extsort/faultfs"
	"repro/internal/gen/freedb"
)

// These tests are the crash-safety half of the spill proof: an I/O
// fault at ANY point of the spill path must surface as a typed error or
// leave the result byte-identical to a clean run — never a silently
// wrong answer. faultfs arms a single deterministic fault; sweeping the
// armed step over every counted operation covers every I/O boundary.

// spillFaultFixture is one small corpus the sweeps run over; kept small
// because the sweep runs a full Detect per counted I/O operation.
func spillFaultFixture(t *testing.T) (*KeyGenResult, *config.Config, Options) {
	t.Helper()
	doc := freedb.Generate(freedb.DefaultOptions(8, 5))
	cfg := mustValidate(t, cdConfig())
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return kg, cfg, Options{SpillThresholdRows: 3}
}

// faultSnapshot is the comparison surface for faulted runs: final
// clusters and normalized Stats.
func faultSnapshot(t *testing.T, res *Result) map[string]string {
	t.Helper()
	out := map[string]string{"": normalizeStats(res.Stats)}
	for name, cs := range res.Clusters {
		out[name] = cs.String()
	}
	return out
}

// TestSpillFaultSweep arms a fault at every counted I/O step in both
// modes. FailWrite is a torn write plus persistent write failure;
// TruncateRead is a silent short read followed by EOF — the case only
// checksums and footers can catch.
func TestSpillFaultSweep(t *testing.T) {
	kg, cfg, base := spillFaultFixture(t)

	clean, err := Detect(kg, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	want := faultSnapshot(t, clean)

	for _, tc := range []struct {
		name string
		mode faultfs.Mode
	}{
		{"fail-write", faultfs.FailWrite},
		{"truncate-read", faultfs.TruncateRead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// An unarmed pass through the counting FS sizes the sweep and
			// doubles as a transparency check.
			counter := faultfs.New(extsort.OSFS(), tc.mode, 0)
			opts := base
			opts.SpillFS = counter
			res, err := Detect(kg, cfg, opts)
			if err != nil {
				t.Fatalf("unarmed faultfs changed behaviour: %v", err)
			}
			diffFaultSnapshots(t, "unarmed", want, faultSnapshot(t, res))
			steps := counter.Steps()
			if steps == 0 {
				t.Fatalf("no %s operations counted; the sweep would be empty", tc.name)
			}

			errored, matched := 0, 0
			for k := int64(1); k <= steps; k++ {
				ffs := faultfs.New(extsort.OSFS(), tc.mode, k)
				opts := base
				opts.SpillFS = ffs
				opts.SpillDir = t.TempDir()
				res, err := Detect(kg, cfg, opts)
				// Faulted or not, the run's passes removed their runs.
				if left, _ := filepath.Glob(filepath.Join(opts.SpillDir, "*.run")); len(left) > 0 {
					t.Fatalf("step %d: %d run file(s) left behind: %v", k, len(left), left)
				}
				if err != nil {
					if !errors.Is(err, faultfs.ErrInjected) && !errors.Is(err, extsort.ErrCorrupt) {
						t.Fatalf("step %d: fault surfaced as an untyped error: %v", k, err)
					}
					errored++
					continue
				}
				// The fault was absorbed (a read already at EOF, ...): the
				// answer must still be exact.
				diffFaultSnapshots(t, fmt.Sprintf("step %d", k), want, faultSnapshot(t, res))
				matched++
			}
			t.Logf("%s: %d steps, %d typed errors, %d byte-identical results",
				tc.name, steps, errored, matched)
			if errored == 0 {
				t.Errorf("%s: no armed step produced an error; the fault never bit", tc.name)
			}
		})
	}
}

func diffFaultSnapshots(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: candidate %q diverged from the clean run\nwant %s\ngot  %s",
				label, name, w, got[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: candidate sets differ: want %d entries, got %d", label, len(want), len(got))
	}
}
