package checkpoint

// Fuzz target for the checkpoint manifest reader: arbitrary bytes must
// parse or fail with an error — never panic — and every accepted
// manifest must survive an encode/parse round trip unchanged. Seed
// corpus lives under testdata/fuzz/FuzzParseManifest.

import (
	"reflect"
	"strings"
	"testing"
)

func FuzzParseManifest(f *testing.F) {
	fp := strings.Repeat("ab", 32)
	valid := encodeManifest(&manifest{
		Seq:      3,
		ConfigFP: fp,
		DocFP:    fp,
		Phase:    PhaseDetect,
		Clusters: []clusterSection{{Candidate: "movie", section: section{File: "s00002-clusters.tsv", SHA: fp}}},
		Pairs:    []pairsSection{{Candidate: "person", NextPass: 1, section: section{File: "s00003-pairs.tsv", SHA: fp}}},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                     // torn write
	f.Add([]byte("#sxnm-checkpoint\tv1\n"))                         // no checksum
	f.Add([]byte("#sxnm-checkpoint\tv99\n#checksum\t" + fp + "\n")) // future version
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return // rejected cleanly
		}
		again, err := parseManifest(encodeManifest(m))
		if err != nil {
			t.Fatalf("re-parse of re-encoded manifest: %v\ninput: %q", err, data)
		}
		if !reflect.DeepEqual(m, again) {
			t.Errorf("manifest changed across encode/parse:\nfirst:  %+v\nsecond: %+v", m, again)
		}
	})
}
