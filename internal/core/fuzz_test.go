package core

// Fuzz targets for the GK dump reader and its escaping, mirroring the
// robustness contract of ReadGK: arbitrary input must either load or
// fail with an error — never panic — and everything accepted must
// survive a write/read round trip. Seed corpora live under
// testdata/fuzz/.

import (
	"strings"
	"testing"

	"repro/internal/config"
)

func fuzzConfig(f *testing.F) *config.Config {
	f.Helper()
	cfg := movieConfig(config.RuleCombined)
	if err := cfg.Validate(); err != nil {
		f.Fatal(err)
	}
	return cfg
}

func FuzzReadGK(f *testing.F) {
	cfg := fuzzConfig(f)
	f.Add([]byte("#gk\tmovie\tkeys=1\tod=1\trows=1\n1\tK\tV\t\n"))
	f.Add([]byte("#gk\tmovie\tkeys=1\tod=1\n1\tSILEN\tSilent River\tperson=2,3\n2\tBROKE\tBroken Storm\t\n"))
	f.Add([]byte("#gk\tmovie\tkeys=1\tod=1\trows=2\n1\tK\tV\t\n"))
	f.Add([]byte("#gk\tnosuch\tkeys=1\tod=1\trows=0\n"))
	f.Add([]byte("1\tK\tV\t\n"))
	f.Add([]byte("#gk\tmovie\tkeys=1\tod=1\trows=1\n1\tK\ta|b%7Cc\tperson=1\n"))
	f.Add([]byte("#gk\tmovie\tkeys=1\tod=1\trows=2\n3\tK\tA\t\n3\tL\tB\t\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		kg, err := ReadGK(strings.NewReader(string(data)), cfg)
		if err != nil {
			return // rejected cleanly
		}
		// Accepted input must survive a write/read round trip.
		var b strings.Builder
		if err := WriteGK(&b, kg); err != nil {
			t.Fatalf("WriteGK after accepting %q: %v", data, err)
		}
		if _, err := ReadGK(strings.NewReader(b.String()), cfg); err != nil {
			t.Fatalf("re-read of re-serialized dump: %v\ninput: %q\ndump: %q", err, data, b.String())
		}
	})
}

func FuzzGKEscape(f *testing.F) {
	f.Add("")
	f.Add("plain")
	f.Add("a\tb|c;d=e,f%g\nh")
	f.Add("100%")
	f.Add("%09%0A")
	f.Add("ünïcode\r\n")
	f.Fuzz(func(t *testing.T, s string) {
		esc := escapeGK(s)
		if got := unescapeGK(esc); got != s {
			t.Errorf("round trip %q -> %q -> %q", s, esc, got)
		}
		if strings.ContainsAny(esc, "\t\n\r|;=,") {
			t.Errorf("escaped %q = %q still contains structural characters", s, esc)
		}
	})
}
