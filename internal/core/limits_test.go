package core

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gen/freedb"
	"repro/internal/similarity"
)

// interruptedMatchesUninterrupted asserts that every candidate the
// interrupted run reports as completed carries exactly the cluster set
// an uninterrupted run produces.
func interruptedMatchesUninterrupted(t *testing.T, full, part *Result) {
	t.Helper()
	if part.Incomplete == nil {
		t.Fatal("partial result has no Incomplete record")
	}
	if len(part.Incomplete.Completed) == 0 {
		t.Fatal("no candidate completed before the interruption")
	}
	for _, name := range part.Incomplete.Completed {
		got, want := part.Clusters[name], full.Clusters[name]
		if got == nil || want == nil {
			t.Fatalf("candidate %q: missing cluster set (got %v, want %v)", name, got, want)
		}
		if got.String() != want.String() {
			t.Errorf("candidate %q: completed clusters differ from uninterrupted run", name)
		}
	}
	for _, name := range part.Incomplete.Interrupted {
		if _, ok := part.Clusters[name]; ok {
			t.Errorf("interrupted candidate %q should not expose clusters", name)
		}
	}
}

func TestCancelMidSlidingWindow(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(200, 5))
	full, err := Run(doc, mustValidate(t, cdConfig()), Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Limits: Limits{CheckEvery: 1}}
	// Cancel a few comparisons into the final candidate ("disc" runs
	// last in bottom-up order), so the leaf candidates are complete.
	seen := 0
	opts.PairObserver = func(p PairObservation) {
		if p.Candidate == "disc" {
			seen++
			if seen == 3 {
				cancel()
			}
		}
	}
	part, err := RunContext(ctx, doc, mustValidate(t, cdConfig()), opts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if part == nil {
		t.Fatal("interruption must return the partial result")
	}
	inc := part.Incomplete
	if inc == nil || inc.Phase != PhaseSlidingWindow {
		t.Fatalf("Incomplete = %+v, want sliding-window phase", inc)
	}
	if len(inc.Interrupted) != 1 || inc.Interrupted[0] != "disc" {
		t.Errorf("Interrupted = %v, want [disc]", inc.Interrupted)
	}
	if inc.KeyPass < 0 {
		t.Errorf("KeyPass = %d, want the in-progress pass", inc.KeyPass)
	}
	if !errors.Is(inc.Cause, ErrCanceled) {
		t.Errorf("Cause = %v, want ErrCanceled", inc.Cause)
	}
	interruptedMatchesUninterrupted(t, full, part)
}

func TestCancelMidTransitiveClosure(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(100, 5))
	cfg := mustValidate(t, cdConfig())
	// Count the window pairs of the final candidate so the second run
	// can cancel exactly on the last one: the sliding window then ends
	// without another poll and the transitive-closure entry check trips.
	total := 0
	if _, err := Run(doc, cfg, Options{PairObserver: func(p PairObservation) {
		if p.Candidate == "disc" {
			total++
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no disc pairs observed")
	}
	full, err := Run(doc, mustValidate(t, cdConfig()), Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	part, err := RunContext(ctx, doc, mustValidate(t, cdConfig()), Options{
		PairObserver: func(p PairObservation) {
			if p.Candidate == "disc" {
				seen++
				if seen == total {
					cancel()
				}
			}
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	inc := part.Incomplete
	if inc == nil || inc.Phase != PhaseTransitiveClosure {
		t.Fatalf("Incomplete = %+v, want transitive-closure phase", inc)
	}
	if inc.KeyPass != -1 {
		t.Errorf("KeyPass = %d, want -1 outside the sliding window", inc.KeyPass)
	}
	interruptedMatchesUninterrupted(t, full, part)
}

// cancelAfterReader cancels ctx once n bytes have been delivered,
// interrupting a streaming parse mid-document.
type cancelAfterReader struct {
	r      io.Reader
	n      int
	read   int
	cancel context.CancelFunc
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	if c.read >= c.n && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return n, err
}

func TestCancelMidStreamKeyGen(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(300, 5))
	xmlText := doc.String()
	cfg := mustValidate(t, cdConfig())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &cancelAfterReader{r: strings.NewReader(xmlText), n: len(xmlText) / 2, cancel: cancel}
	kg, err := GenerateKeysStreamContext(ctx, r, cfg, Limits{CheckEvery: 1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if kg == nil || kg.Tables["disc"] == nil {
		t.Fatal("interruption must return the partial tables")
	}
	rows := len(kg.Tables["disc"].Rows)
	if rows == 0 {
		t.Error("no rows extracted before cancellation")
	}
	fullKG, err := GenerateKeysStream(strings.NewReader(xmlText), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows >= len(fullKG.Tables["disc"].Rows) {
		t.Errorf("partial rows = %d, want fewer than the full %d", rows, len(fullKG.Tables["disc"].Rows))
	}
	// The rows that were extracted match the uninterrupted run.
	for i := 0; i < rows; i++ {
		if kg.Tables["disc"].Rows[i].EID != fullKG.Tables["disc"].Rows[i].EID {
			t.Fatalf("row %d: EID %d != %d", i, kg.Tables["disc"].Rows[i].EID, fullKG.Tables["disc"].Rows[i].EID)
		}
	}
}

func TestCancelMidDOMKeyGen(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(50, 3))
	cfg := mustValidate(t, cdConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	kg, err := GenerateKeysContext(ctx, doc, cfg, Limits{CheckEvery: 1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if kg == nil {
		t.Fatal("interruption must return the partial tables")
	}
	// Through Run the interruption is reported as an incomplete keygen.
	res, err := RunContext(ctx, doc, cfg, Options{Limits: Limits{CheckEvery: 1}})
	if !errors.Is(err, ErrCanceled) || res == nil || res.Incomplete == nil {
		t.Fatalf("RunContext = (%v, %v), want partial result + ErrCanceled", res, err)
	}
	if res.Incomplete.Phase != PhaseKeyGen || res.Incomplete.KeyPass != -1 {
		t.Errorf("Incomplete = %+v, want key-generation phase", res.Incomplete)
	}
}

func TestMaxComparisonsLimit(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(200, 5))
	full, err := Run(doc, mustValidate(t, cdConfig()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Comparisons < 100 {
		t.Skipf("corpus too small: %d comparisons", full.Stats.Comparisons)
	}
	// One short of the full budget: the breach lands in the last
	// candidate ("disc"), so every leaf candidate completes first.
	max := full.Stats.Comparisons - 1
	part, err := Run(doc, mustValidate(t, cdConfig()), Options{
		Limits: Limits{MaxComparisons: max},
	})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.Limit != "max-comparisons" || le.Max != max {
		t.Fatalf("limit details = %+v", le)
	}
	if le.Observed <= le.Max {
		t.Errorf("observed %d should exceed max %d", le.Observed, le.Max)
	}
	if part == nil || part.Incomplete == nil {
		t.Fatal("limit breach must return the partial result")
	}
	interruptedMatchesUninterrupted(t, full, part)
}

func TestMaxRowsLimit(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(50, 3))
	cfg := mustValidate(t, cdConfig())
	_, err := GenerateKeysContext(context.Background(), doc, cfg, Limits{MaxRows: 10})
	var le *LimitError
	if !errors.As(err, &le) || le.Limit != "max-rows" || le.Max != 10 {
		t.Fatalf("want max-rows LimitError, got %v", err)
	}
	// Streaming path enforces the same cap.
	_, err = GenerateKeysStreamContext(context.Background(),
		strings.NewReader(doc.String()), cfg, Limits{MaxRows: 10})
	le = nil
	if !errors.As(err, &le) || le.Limit != "max-rows" {
		t.Fatalf("stream: want max-rows LimitError, got %v", err)
	}
}

func TestDocLimitsOnMaterializedDocument(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(20, 2))
	cfg := mustValidate(t, cdConfig())
	res, err := RunContext(context.Background(), doc, cfg, Options{Limits: Limits{MaxNodes: 5}})
	var le *LimitError
	if !errors.As(err, &le) || le.Limit != "max-nodes" {
		t.Fatalf("want max-nodes LimitError, got %v", err)
	}
	if res == nil || res.Incomplete == nil || res.Incomplete.Phase != PhaseKeyGen {
		t.Fatalf("want keygen-phase partial result, got %+v", res)
	}
	if _, err := RunContext(context.Background(), doc, cfg, Options{Limits: Limits{MaxDepth: 2}}); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("want depth breach, got %v", err)
	}
	// Generous caps leave the run untouched.
	ok, err := RunContext(context.Background(), doc, cfg, Options{Limits: Limits{MaxDepth: 100, MaxNodes: 1 << 20}})
	if err != nil || ok.Incomplete != nil {
		t.Fatalf("generous limits should pass: %v", err)
	}
}

func TestStreamDepthAndNodeLimits(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(20, 2))
	cfg := mustValidate(t, cdConfig())
	_, err := GenerateKeysStreamContext(context.Background(),
		strings.NewReader(doc.String()), cfg, Limits{MaxDepth: 2})
	var le *LimitError
	if !errors.As(err, &le) || le.Limit != "max-depth" {
		t.Fatalf("want max-depth LimitError, got %v", err)
	}
	_, err = GenerateKeysStreamContext(context.Background(),
		strings.NewReader(doc.String()), cfg, Limits{MaxNodes: 10})
	le = nil
	if !errors.As(err, &le) || le.Limit != "max-nodes" {
		t.Fatalf("want max-nodes LimitError, got %v", err)
	}
}

// A panic inside a candidate's detection is recovered into a
// *PanicError naming the candidate, carrying the stack and the panic
// value, and aborts the run without a partial result. The rule panics
// only for artist, so the candidates before it complete normally.
func TestSequentialPanicContainment(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(100, 5))
	cfg := mustValidate(t, cdConfig())
	opts := Options{
		FieldRule: func(c *config.Candidate, fieldSims []float64, descSim float64, hasDesc bool) bool {
			if c.Name == "artist" {
				panic("injected rule failure")
			}
			for _, s := range fieldSims {
				if s != similarity.FieldAbsent && s >= 0.9 {
					return true
				}
			}
			return false
		},
	}
	res, err := Run(doc, cfg, opts)
	if err == nil {
		t.Fatal("panicking rule must surface as an error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Candidate != "artist" {
		t.Errorf("panic attributed to %q, want artist", pe.Candidate)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Error("panic error should carry the stack")
	}
	if !strings.Contains(err.Error(), "artist") || !strings.Contains(err.Error(), "injected rule failure") {
		t.Errorf("error message should name candidate and panic value: %v", err)
	}
	if res != nil {
		t.Error("panic aborts the run without a partial result")
	}
}

func TestDeterminismUnderCancelableContext(t *testing.T) {
	doc := freedb.Generate(freedb.DefaultOptions(150, 5))
	plain, err := Run(doc, mustValidate(t, cdConfig()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxRun, err := RunContext(ctx, doc, mustValidate(t, cdConfig()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ctxRun.Incomplete != nil {
		t.Fatal("uncancelled run must be complete")
	}
	for name := range plain.Clusters {
		if plain.Clusters[name].String() != ctxRun.Clusters[name].String() {
			t.Errorf("candidate %q: cancelable context changed the outcome", name)
		}
	}
	if plain.Stats.Comparisons != ctxRun.Stats.Comparisons {
		t.Errorf("comparisons differ: %d vs %d", plain.Stats.Comparisons, ctxRun.Stats.Comparisons)
	}
}
