package extsort

import (
	"testing"
)

// FuzzMergeInvariants feeds arbitrary byte strings through a full
// spill-and-merge cycle and checks the two invariants every external
// sort must keep: the output is sorted under Less, and it is exactly
// the input multiset — nothing dropped, duplicated, or invented.
func FuzzMergeInvariants(f *testing.F) {
	f.Add([]byte{1, 'b', 0, 'a', 0, 'c'})
	f.Add([]byte{3, 'z', 'z', 0, 0, 'z', 'z', 0, 1, 2, 3})
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		threshold := 1
		if len(data) > 0 {
			threshold = int(data[0])%16 + 1
			data = data[1:]
		}
		// Split the remainder into records on zero bytes; records may be
		// empty and may repeat.
		var recs []string
		start := 0
		for i, b := range data {
			if b == 0 {
				recs = append(recs, string(data[start:i]))
				start = i + 1
			}
		}
		recs = append(recs, string(data[start:]))

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

		want := map[string]int{}
		for _, r := range recs {
			want[r]++
		}
		var prev string
		n := 0
		for {
			rec, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if n > 0 && rec < prev {
				t.Fatalf("output out of order: %q after %q", rec, prev)
			}
			prev = rec
			want[rec]--
			n++
		}
		if n != len(recs) {
			t.Fatalf("merged %d records, put in %d", n, len(recs))
		}
		for r, c := range want {
			if c != 0 {
				t.Fatalf("record %q multiset count off by %d", r, c)
			}
		}
	})
}
