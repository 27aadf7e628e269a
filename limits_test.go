package sxnm

// Facade-level tests for operational limits, cancellation, and
// graceful degradation — including the acceptance scenario: a short
// deadline over the large generated corpus returns promptly with a
// partial Result, while the same run uncancelled is byte-identical to
// an unlimited run.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/xmltree"
)

func largeConfig(t *testing.T) *Config {
	t.Helper()
	cfg := config.DataSet3(5)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestDeadlineOverLargeDataset(t *testing.T) {
	doc := dataset.DataSet3(1500, 1)

	// Reference: the unlimited run (~400ms on dev hardware).
	det, err := New(largeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	full, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}

	const deadline = 50 * time.Millisecond
	limited, err := NewWithOptions(largeConfig(t), Options{Limits: Limits{Timeout: deadline}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	part, err := limited.RunContext(context.Background(), doc)
	elapsed := time.Since(start)

	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if part == nil || part.Incomplete == nil {
		t.Fatal("deadline breach must return a partial result with Incomplete")
	}
	if !errors.Is(part.Incomplete.Cause, ErrDeadlineExceeded) {
		t.Errorf("Incomplete.Cause = %v", part.Incomplete.Cause)
	}
	if len(part.Incomplete.Interrupted) == 0 && part.Incomplete.Phase == "" {
		t.Errorf("Incomplete must name the interrupted work: %+v", part.Incomplete)
	}
	// The acceptance bound is ~2x the deadline; the checks fire every
	// 1024 window pairs (about a millisecond of work), so the only
	// reason to miss 100ms is scheduler noise or the race detector —
	// allow 5x before failing.
	if elapsed > 5*deadline {
		t.Errorf("run took %v, want well under %v", elapsed, 5*deadline)
	}
	// Whatever completed matches the unlimited run exactly.
	for _, name := range part.Incomplete.Completed {
		if part.Clusters[name].String() != full.Clusters[name].String() {
			t.Errorf("candidate %q: partial clusters diverge", name)
		}
	}
}

func TestUncancelledRunByteIdenticalToSeed(t *testing.T) {
	doc := dataset.DataSet3(800, 1)
	det, err := New(largeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	det2, err := New(largeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := det2.RunContext(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if viaCtx.Incomplete != nil {
		t.Fatal("uncancelled run must be complete")
	}
	var a, b strings.Builder
	if err := WriteClustersXML(&a, plain); err != nil {
		t.Fatal(err)
	}
	if err := WriteClustersXML(&b, viaCtx); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("cancelable context changed the serialized cluster output")
	}
}

func TestRunStreamContextPartialResult(t *testing.T) {
	doc := dataset.DataSet3(500, 1)
	xmlText := doc.String()
	det, err := NewWithOptions(largeConfig(t), Options{Limits: Limits{CheckEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // interrupt immediately: keygen never gets past token one
	res, err := det.RunReaderContext(ctx, strings.NewReader(xmlText))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res == nil || res.Incomplete == nil || res.Incomplete.Phase != "key-generation" {
		t.Fatalf("want key-generation partial result, got %+v", res)
	}
}

func TestFacadeLimitErrors(t *testing.T) {
	det, err := NewWithOptions(largeConfig(t), Options{Limits: Limits{MaxDepth: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = det.RunReader(strings.NewReader("<cds><disc><dtitle>x</dtitle></disc></cds>"))
	var le *LimitError
	if !errors.As(err, &le) || le.Limit != "max-depth" {
		t.Fatalf("want max-depth LimitError through the facade, got %v", err)
	}
	if !errors.Is(err, ErrLimitExceeded) {
		t.Error("facade error should match ErrLimitExceeded")
	}
	if !strings.HasPrefix(err.Error(), "sxnm:") {
		t.Errorf("facade error should carry the sxnm: prefix: %v", err)
	}
}

func TestParseXMLWithLimits(t *testing.T) {
	_, err := ParseXMLWithLimits(strings.NewReader("<a><b><c/></b></a>"), Limits{MaxDepth: 2})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v", err)
	}
	doc, err := ParseXMLWithLimits(strings.NewReader("<a><b/></a>"), Limits{MaxDepth: 2})
	if err != nil || doc == nil {
		t.Fatalf("within limits should parse: %v", err)
	}
}

// TestHostileInputsReader drives the hostile documents of
// internal/core's TestHostileInputs through the default reader path,
// RunReader, which builds rows from tokens without a document: each
// must end in an error, a typed *LimitError where a limit applies.
func TestHostileInputsReader(t *testing.T) {
	const open = "<movie_database><movies><movie><title>"
	const closeDoc = "</title></movie></movies></movie_database>"
	laughs := `<?xml version="1.0"?><!DOCTYPE lolz [<!ENTITY lol "lol">` +
		`<!ENTITY lol1 "&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;">]>`
	cases := []struct {
		name, in string
		lim      Limits
		limit    string // the LimitError expected, "" for a syntax error
	}{
		{"depth past MaxDepth", open + strings.Repeat("<d>", 100) + strings.Repeat("</d>", 100) + closeDoc,
			Limits{MaxDepth: 50}, "max-depth"},
		{"nodes past MaxNodes", "<movie_database><movies>" + strings.Repeat("<movie><title>t</title></movie>", 1000) + "</movies></movie_database>",
			Limits{MaxNodes: 500}, "max-nodes"},
		{"unterminated text node", open + strings.Repeat("x", 1<<20), Limits{}, ""},
		{"undeclared entity", laughs + open + "&lol1;" + closeDoc, Limits{}, ""},
		{"invalid UTF-8", open + "caf\xc3\x28" + closeDoc, Limits{}, ""},
		{"NUL byte", open + "a\x00b" + closeDoc, Limits{}, ""},
		{"non-XML-Char reference", open + "a&#xFFFF;b" + closeDoc, Limits{}, ""},
		{"non-UTF-8 encoding", `<?xml version="1.0" encoding="ISO-8859-1"?>` + open + "x" + closeDoc, Limits{}, ""},
		{"unterminated comment", open + "x<!-- no end", Limits{}, ""},
		{"unterminated CDATA", open + "<![CDATA[no end", Limits{}, ""},
		{"mismatched tags", "<movie_database><movies><movie><title>x</movie></title></movies></movie_database>", Limits{}, ""},
		{"trailing content", open + "x" + closeDoc + "junk", Limits{}, ""},
		{"second root", open + "x" + closeDoc + "<movie_database/>", Limits{}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			det, err := NewWithOptions(config.DataSet1(5), Options{Limits: c.lim})
			if err != nil {
				t.Fatal(err)
			}
			_, err = det.RunReader(strings.NewReader(c.in))
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			var le *LimitError
			isLimit := errors.As(err, &le)
			if c.limit != "" && (!isLimit || le.Limit != c.limit) {
				t.Fatalf("want a %s LimitError, got %v", c.limit, err)
			}
			var se *xmltree.SyntaxError
			if c.limit == "" && !errors.As(err, &se) {
				t.Fatalf("want a *xmltree.SyntaxError, got %v", err)
			}
		})
	}
}

// TestSpillKeepsMaxRowsReader checks the reader path: a spill threshold
// does not waive MaxRows, so RunReader stops with the same max-rows
// LimitError and partial Result as without spill.
func TestSpillKeepsMaxRowsReader(t *testing.T) {
	data := dataset.DataSet3(60, 2).String()
	run := func(threshold int) (*Result, *LimitError) {
		t.Helper()
		det, err := NewWithOptions(largeConfig(t), Options{
			Limits:             Limits{MaxRows: 10},
			SpillThresholdRows: threshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.RunReader(strings.NewReader(data))
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
	got, gotLE := run(4)
	if *gotLE != *wantLE {
		t.Errorf("LimitError %+v, want %+v", *gotLE, *wantLE)
	}
	if got.Incomplete.Phase != want.Incomplete.Phase || len(got.Clusters) != len(want.Clusters) {
		t.Errorf("partial result differs: got %+v with %d cluster sets, want %+v with %d",
			*got.Incomplete, len(got.Clusters), *want.Incomplete, len(want.Clusters))
	}
}
