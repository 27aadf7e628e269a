package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runlimit"
	"repro/internal/xmltree"
)

// TestHostileInputs drives malicious and malformed documents through
// both front ends — xmltree.ParseWithLimits and the streaming key
// generator — and requires each to end in an error (a typed
// *runlimit.LimitError where a limit applies), never a panic, with
// allocation bounded by a small multiple of the input.
func TestHostileInputs(t *testing.T) {
	const open = "<movie_database><movies><movie><title>"
	const closeDoc = "</title></movie></movies></movie_database>"
	laughs := `<?xml version="1.0"?><!DOCTYPE lolz [<!ENTITY lol "lol">` +
		`<!ENTITY lol1 "&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;">` +
		`<!ENTITY lol2 "&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;">` +
		`<!ENTITY lol9 "&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;">]>`
	cases := []struct {
		name  string
		in    string
		lim   runlimit.Limits
		limit string // the LimitError expected, "" for a syntax error
	}{
		{"depth past MaxDepth", open + strings.Repeat("<d>", 100) + strings.Repeat("</d>", 100) + closeDoc,
			runlimit.Limits{MaxDepth: 50}, "max-depth"},
		{"nodes past MaxNodes", "<movie_database><movies>" + strings.Repeat("<movie><title>t</title></movie>", 1000) + "</movies></movie_database>",
			runlimit.Limits{MaxNodes: 500}, "max-nodes"},
		{"16 MB unterminated text node", open + strings.Repeat("x", 16<<20), runlimit.Limits{}, ""},
		{"billion laughs", laughs + open + "&lol9;" + closeDoc, runlimit.Limits{}, ""},
		{"billion laughs in attribute", laughs + `<movie_database a="&lol9;"/>`, runlimit.Limits{}, ""},
		{"invalid UTF-8", open + "caf\xc3\x28" + closeDoc, runlimit.Limits{}, ""},
		{"NUL byte", open + "a\x00b" + closeDoc, runlimit.Limits{}, ""},
		{"non-XML-Char byte", open + "a\x1bb" + closeDoc, runlimit.Limits{}, ""},
		{"non-XML-Char reference", open + "a&#xFFFF;b" + closeDoc, runlimit.Limits{}, ""},
		{"non-UTF-8 encoding", `<?xml version="1.0" encoding="ISO-8859-1"?>` + open + "x" + closeDoc, runlimit.Limits{}, ""},
		{"unterminated comment", open + "x<!-- no end" + strings.Repeat(" ", 1000), runlimit.Limits{}, ""},
		{"unterminated CDATA", open + "<![CDATA[no end" + strings.Repeat(" ", 1000), runlimit.Limits{}, ""},
		{"mismatched tags", "<movie_database><movies><movie><title>x</movie></title></movies></movie_database>", runlimit.Limits{}, ""},
		{"trailing content", open + "x" + closeDoc + "junk", runlimit.Limits{}, ""},
		{"second root", open + "x" + closeDoc + "<movie_database/>", runlimit.Limits{}, ""},
	}
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	fronts := []struct {
		name string
		run  func(in string, lim runlimit.Limits) error
	}{
		{"parse", func(in string, lim runlimit.Limits) error {
			_, err := xmltree.ParseWithLimits(strings.NewReader(in), lim)
			return err
		}},
		{"stream", func(in string, lim runlimit.Limits) error {
			_, err := GenerateKeysStreamContext(context.Background(), strings.NewReader(in), cfg, lim)
			return err
		}},
	}
	for _, c := range cases {
		for _, f := range fronts {
			t.Run(c.name+"/"+f.name, func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := f.run(c.in, c.lim)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatal("hostile input accepted")
				}
				var le *runlimit.LimitError
				isLimit := errors.As(err, &le)
				if c.limit != "" && (!isLimit || le.Limit != c.limit) {
					t.Fatalf("want a %s LimitError, got %v", c.limit, err)
				}
				if c.limit == "" && isLimit {
					t.Fatalf("unexpected LimitError %v", err)
				}
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(6*len(c.in)+8<<20) {
					t.Errorf("allocated %d bytes for a %d-byte input", alloc, len(c.in))
				}
			})
		}
	}
}
