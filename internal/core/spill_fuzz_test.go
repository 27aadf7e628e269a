package core

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzRow deterministically builds a canonical GK row from fuzz bytes:
// strings are drawn from the input, counts stay small, and descendant
// names are made strictly increasing (the canonical map shape the
// encoder always produces).
func fuzzRow(data []byte) *GKRow {
	d := data
	take := func() string {
		if len(d) == 0 {
			return ""
		}
		n := int(d[0]) % 8
		d = d[1:]
		if n > len(d) {
			n = len(d)
		}
		s := string(d[:n])
		d = d[n:]
		return s
	}
	takeN := func(mod int) int {
		if len(d) == 0 {
			return 0
		}
		n := int(d[0]) % mod
		d = d[1:]
		return n
	}
	r := &GKRow{EID: takeN(1 << 10)}
	if nk := takeN(4); nk > 0 {
		r.Keys = make([]string, nk)
		for i := range r.Keys {
			r.Keys[i] = take()
		}
	}
	if no := takeN(3); no > 0 {
		r.OD = make([][]string, no)
		for i := range r.OD {
			if nv := takeN(3); nv > 0 {
				r.OD[i] = make([]string, nv)
				for j := range r.OD[i] {
					r.OD[i][j] = take()
				}
			}
		}
	}
	if nd := takeN(3); nd > 0 {
		r.Desc = make(map[string][]int, nd)
		prev := ""
		for i := 0; i < nd; i++ {
			name := prev + "x" + take() // strictly longer than prev: increasing
			var eids []int
			if ne := takeN(3); ne > 0 {
				eids = make([]int, ne)
				for j := range eids {
					eids[j] = takeN(1<<9) - 128 // negatives too
				}
			}
			r.Desc[name] = eids
			prev = name
		}
	}
	return r
}

// FuzzSpillRowCodec drives the spill row codec with arbitrary bytes,
// checking the three properties a spilled row's trip through a run
// file rests on: encode∘decode is the identity on canonical rows, the encoding is
// injective (split the input in two — distinct rows must encode to
// distinct bytes), and decode never panics or over-reads on arbitrary
// input.
func FuzzSpillRowCodec(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 'a', 'b', 0, 1}, []byte{9})
	f.Add([]byte{200, 3, 2, 'k', '1', 0, 1, 1, 2, 'v', '!'}, []byte{200, 3, 2, 'k', '1', 0, 1, 1, 2, 'v', '?'})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, rb := fuzzRow(a), fuzzRow(b)

		// Round trip: decode is the exact inverse of encode.
		enc := appendGKRow(nil, ra)
		back, err := decodeGKRow(enc)
		if err != nil {
			t.Fatalf("decode of a canonical encoding failed: %v\nrow %+v", err, ra)
		}
		if !reflect.DeepEqual(back, ra) {
			t.Fatalf("round trip changed the row:\nin  %+v\nout %+v", ra, back)
		}

		// Injectivity: distinct rows never collide, so no two rows can
		// come back from a run file as one another.
		encB := appendGKRow(nil, rb)
		if bytes.Equal(enc, encB) && !reflect.DeepEqual(ra, rb) {
			t.Fatalf("distinct rows encode identically:\n%+v\n%+v", ra, rb)
		}

		// Robustness: arbitrary bytes must decode or error, never panic.
		// (Go's varint reader accepts non-minimal forms, so an accepted
		// decode of arbitrary bytes need not re-encode byte-identically;
		// run files only ever hold encoder-produced bytes.)
		if r, err := decodeGKRow(a); err == nil {
			if re := appendGKRow(nil, r); len(re) > len(a) {
				t.Fatalf("re-encoding %x of accepted input %x grew", re, a)
			}
		}
	})
}
