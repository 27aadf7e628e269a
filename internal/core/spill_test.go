package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/extsort"
	"repro/internal/gen/freedb"
	"repro/internal/obs"
)

// The tests in this file are the proof behind Options.SpillThresholdRows:
// the external-sort spill path must reproduce the in-memory path
// observable-for-observable — clusters, Stats, pair observations,
// checkpoint streams, and interrupted partials — across thresholds,
// worker counts, and cache states.

// spillThresholds is the threshold axis: 1 = one row per run file (the
// maximal-spill stress shape), 7 = several uneven runs per pass, and a
// huge threshold = configured but never triggered.
var spillThresholds = []int{1, 7, 1 << 30}

// TestGKRowComparator pins the pass comparator the in-memory sort, the
// run-file writer, and the k-way merge all share: bytewise on the pass
// key, ties broken by EID, including empty keys and non-ASCII bytes
// (where bytewise and naive collation orders differ).
func TestGKRowComparator(t *testing.T) {
	row := func(eid int, keys ...string) *GKRow { return &GKRow{EID: eid, Keys: keys} }
	cases := []struct {
		name string
		a, b *GKRow
		pass int
		less bool // a < b
	}{
		{"distinct keys", row(1, "abc"), row(2, "abd"), 0, true},
		{"distinct keys reversed", row(1, "abd"), row(2, "abc"), 0, false},
		{"equal keys tie on EID", row(3, "same"), row(9, "same"), 0, true},
		{"equal keys tie on EID reversed", row(9, "same"), row(3, "same"), 0, false},
		{"empty key sorts first", row(5, ""), row(4, "a"), 0, true},
		{"both empty tie on EID", row(2, ""), row(7, ""), 0, true},
		{"prefix sorts first", row(1, "ab"), row(2, "abc"), 0, true},
		{"non-ASCII bytewise", row(1, "a"), row(2, "\xff"), 0, true},
		{"high byte beats multibyte rune", row(1, "é"), row(2, "\xff"), 0, true},
		{"second pass key decides", row(1, "z", "a"), row(2, "a", "b"), 1, true},
		{"second pass equal ties on EID", row(8, "z", "k"), row(4, "a", "k"), 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := gkRowLess(tc.a, tc.b, tc.pass); got != tc.less {
				t.Errorf("gkRowLess(%v, %v, pass %d) = %v, want %v", tc.a, tc.b, tc.pass, got, tc.less)
			}
			if tc.less && gkRowLess(tc.b, tc.a, tc.pass) {
				t.Errorf("comparator is not antisymmetric for %v / %v", tc.a, tc.b)
			}
		})
	}
}

// TestSortPassMatchesStableSort checks the in-memory pass sort (an
// unstable pdqsort under gkRowCompare) against sort.SliceStable under
// gkRowLess on tables with heavy key ties and EIDs in random order:
// with unique EIDs the order is total, so both give one permutation.
func TestSortPassMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := []string{"", "A", "A", "A", "AB", "B", "\xff", "é"}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		rows := make([]GKRow, n)
		for i, eid := range rng.Perm(n) {
			rows[i] = GKRow{EID: eid*7 - 100, Keys: []string{keys[rng.Intn(len(keys))], keys[rng.Intn(3)]}}
		}
		for pass := 0; pass < 2; pass++ {
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return gkRowLess(&rows[want[a]], &rows[want[b]], pass) })
			order := make([]sortedRow, n)
			sortPass(order, rows, pass)
			for i, r := range order {
				if r.row != &rows[want[i]] {
					t.Fatalf("trial %d pass %d: position %d holds EID %d, stable sort has EID %d",
						trial, pass, i, r.row.EID, rows[want[i]].EID)
				}
			}
		}
	}
}

// TestSpillSortMatchesStableSort cross-checks the external sort against
// sort.SliceStable under the exact comparator, over rows with heavy key
// duplication, empty keys, and non-ASCII bytes. The merged permutation
// must be identical — the root of the byte-identical claim.
func TestSpillSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := []string{"", "a", "a", "ab", "\xff", "é", "zz", "\x00x"}
	var rows []GKRow
	for i := 0; i < 64; i++ {
		rows = append(rows, GKRow{
			EID:  i*3 + 1, // unique, unordered relative to keys
			Keys: []string{keys[rng.Intn(len(keys))]},
			OD:   [][]string{{fmt.Sprintf("v%d", i)}},
		})
	}
	want := make([]int, len(rows))
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return gkRowLess(&rows[order[a]], &rows[order[b]], 0) })
	for i, o := range order {
		want[i] = rows[o].EID
	}

	for _, threshold := range []int{1, 5, 64} {
		cfg := extsort.Config[*GKRow]{
			Dir:         t.TempDir(),
			Prefix:      "x",
			MaxInMemory: threshold,
			Encode:      func(dst []byte, r *GKRow) []byte { return appendGKRow(dst, r) },
			Decode:      decodeGKRow,
			Less:        func(a, b *GKRow) bool { return gkRowLess(a, b, 0) },
		}
		s, err := extsort.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			if err := s.Add(&rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Merge()
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for {
			r, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, r.EID)
		}
		it.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("threshold %d: merged EID order %v, want stable-sort order %v", threshold, got, want)
		}
	}
}

// TestSpillDifferentialMatrix is the headline equivalence proof:
// SpillThresholdRows ∈ {1,7,∞} × PairWorkers ∈ {0,4} × SimCache ∈
// {off,on} all reproduce the in-memory run exactly — cluster sets,
// Stats, every PairObservation, and the checkpoint callback stream.
func TestSpillDifferentialMatrix(t *testing.T) {
	for _, sc := range differentialScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			kg, err := GenerateKeys(sc.doc, sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			baseline := snapshotRun(t, kg, sc.cfg, sc.base)
			for _, threshold := range spillThresholds {
				for _, workers := range []int{0, 4} {
					for _, cache := range []bool{false, true} {
						opts := sc.base
						opts.SpillThresholdRows = threshold
						opts.PairWorkers = workers
						opts.SimCache = cache
						label := fmt.Sprintf("spill=%d workers=%d cache=%v", threshold, workers, cache)
						diffSnapshots(t, label, baseline, snapshotRun(t, kg, sc.cfg, opts))
					}
				}
			}
		})
	}
}

// TestSpillDifferentialInterrupted pins the interruption seam under
// spilling: a MaxComparisons budget trips at the same enumeration point
// whether rows stream from memory or run files, so the partial result
// and checkpoint flush must match the in-memory interrupted run.
func TestSpillDifferentialInterrupted(t *testing.T) {
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustValidate(t, config.DataSet1(5))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type partial struct {
		incomplete Incomplete
		ckpt       map[string][]string
		clusters   map[string]string
	}
	run := func(threshold, workers int) partial {
		rec := newRecordingCkpt()
		opts := Options{
			SpillThresholdRows: threshold,
			PairWorkers:        workers,
			Checkpointer:       rec,
			Limits:             Limits{MaxComparisons: 700},
		}
		res, err := Detect(kg, cfg, opts)
		if err == nil {
			t.Fatalf("spill=%d workers=%d: expected an interrupted run", threshold, workers)
		}
		if res == nil || res.Incomplete == nil {
			t.Fatalf("spill=%d workers=%d: interrupted run returned no partial result", threshold, workers)
		}
		p := partial{incomplete: *res.Incomplete, ckpt: rec.perCand,
			clusters: make(map[string]string)}
		p.incomplete.Cause = nil
		for name, cs := range res.Clusters {
			p.clusters[name] = cs.String()
		}
		return p
	}
	want := run(0, 0) // in-memory sequential baseline
	for _, threshold := range spillThresholds {
		for _, workers := range []int{0, 4} {
			got := run(threshold, workers)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("spill=%d workers=%d: interrupted snapshot differs\nwant %+v\ngot  %+v",
					threshold, workers, want, got)
			}
		}
	}
}

// TestSpillKeepsMaxRows checks that a spill threshold leaves MaxRows a
// hard cap: a table past it fails the run with the same max-rows
// LimitError and the same partial Result as without spill.
func TestSpillKeepsMaxRows(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(50, 3))
	cfg := mustValidate(t, cdConfig())
	run := func(threshold int) (*Result, *LimitError) {
		t.Helper()
		res, err := RunContext(context.Background(), doc, cfg, Options{
			Limits:             Limits{MaxRows: 10},
			SpillThresholdRows: threshold,
		})
		var le *LimitError
		if !errors.As(err, &le) || le.Limit != "max-rows" {
			t.Fatalf("spill=%d: want max-rows LimitError, got %v", threshold, err)
		}
		if res == nil || res.Incomplete == nil {
			t.Fatalf("spill=%d: no partial result", threshold)
		}
		return res, le
	}
	want, wantLE := run(0)
	for _, threshold := range []int{1, 16} {
		got, gotLE := run(threshold)
		if *gotLE != *wantLE {
			t.Errorf("spill=%d: LimitError %+v, want %+v", threshold, *gotLE, *wantLE)
		}
		wi, gi := *want.Incomplete, *got.Incomplete
		wi.Cause, gi.Cause = nil, nil
		if !reflect.DeepEqual(gi, wi) {
			t.Errorf("spill=%d: Incomplete %+v, want %+v", threshold, gi, wi)
		}
		if len(got.Clusters) != len(want.Clusters) {
			t.Errorf("spill=%d: %d partial cluster sets, want %d", threshold, len(got.Clusters), len(want.Clusters))
		}
		for name, cs := range want.Clusters {
			if g := got.Clusters[name]; g == nil || g.String() != cs.String() {
				t.Errorf("spill=%d: candidate %q: partial clusters diverge", threshold, name)
			}
		}
	}
}

// TestSpillObservability checks the accounting contract: spill work
// shows up in metrics, the report's spill section, and spill spans —
// and never in Stats (proven byte-identical by the differential suite).
func TestSpillObservability(t *testing.T) {
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustValidate(t, config.DataSet1(5))
	kg, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	ob := obs.New(col)
	if _, err := Detect(kg, cfg, Options{SpillThresholdRows: 1, Observer: ob}); err != nil {
		t.Fatal(err)
	}
	snap := ob.Metrics().Snapshot()
	if snap.SpillRuns == 0 || snap.SpillBytesWritten == 0 || snap.SpillBytesRead == 0 {
		t.Fatalf("spill counters missing from metrics: %+v", snap)
	}
	rep := col.Report(ob.Metrics())
	if rep.Spill == nil {
		t.Fatal("report has no spill section after a spilled run")
	}
	if rep.Spill.Runs != snap.SpillRuns || rep.Spill.BytesWritten != snap.SpillBytesWritten {
		t.Errorf("report spill section %+v disagrees with metrics %+v", rep.Spill, snap)
	}

	// An in-memory run reports no spill work at all.
	col2 := obs.NewCollector()
	ob2 := obs.New(col2)
	if _, err := Detect(kg, cfg, Options{Observer: ob2}); err != nil {
		t.Fatal(err)
	}
	if forcedSpillThreshold == 0 {
		if s := ob2.Metrics().Snapshot(); s.SpillRuns != 0 || s.SpillBytesWritten != 0 {
			t.Errorf("in-memory run counted spill work: %+v", s)
		}
		if rep2 := col2.Report(ob2.Metrics()); rep2.Spill != nil {
			t.Errorf("in-memory run produced a spill report section: %+v", rep2.Spill)
		}
	}
}

// TestSpillRowCodecRejects locks decode-time strictness: trailing
// bytes, truncations, and non-canonical descendant order are malformed,
// not best-effort rows.
func TestSpillRowCodecRejects(t *testing.T) {
	row := &GKRow{
		EID:  42,
		Keys: []string{"k1", ""},
		OD:   [][]string{{"a", "b"}, nil},
		Desc: map[string][]int{"track": {7, 9}, "artist": {1}},
	}
	enc := appendGKRow(nil, row)
	back, err := decodeGKRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, row) {
		t.Fatalf("round trip changed the row:\nin  %+v\nout %+v", row, back)
	}

	if _, err := decodeGKRow(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeGKRow(enc[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	// Desc written out of name order is non-canonical and must be
	// rejected: hand-build an encoding with names "b" then "a".
	swapped := appendGKRow(nil, &GKRow{EID: 1, Keys: []string{"x"}})
	swapped = swapped[:len(swapped)-1]         // drop the 0 desc count
	swapped = append(swapped, 2)               // two desc entries
	swapped = append(swapped, 1, 'b', 1, 1<<1) // name "b", one EID (zig-zag 1)
	swapped = append(swapped, 1, 'a', 1, 1<<1) // name "a" after "b": out of order
	if _, err := decodeGKRow(swapped); err == nil {
		t.Error("out-of-order descendant names accepted")
	}
}
