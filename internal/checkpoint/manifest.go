package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// The manifest is the checkpoint's single source of truth: a small
// line-oriented TSV file naming the run's fingerprints, phase, and
// every section file with its SHA-256. It is rewritten atomically
// (temp + fsync + rename) after each durable step; section files are
// immutable once renamed into place, so a crash anywhere leaves the
// previous manifest pointing at intact files. A trailing self-checksum
// line detects torn or corrupted manifest bytes.
//
// Format (version 2; version 1 also held a gk section with the GK
// tables, which a resume now rebuilds from the document's tokens):
//
//	#sxnm-checkpoint	v2
//	seq	<n>
//	config	<sha256 hex>
//	document	<sha256 hex>
//	phase	<detection|done>
//	clusters	<candidate>	<file>	<sha256 hex>
//	pairs	<candidate>	<next pass>	<file>	<sha256 hex>
//	#checksum	<sha256 hex of all preceding bytes>
//
// Candidate names are percent-escaped (tab, newline, carriage return,
// percent); section file names are bare basenames inside the run
// directory.

const (
	manifestName  = "manifest.tsv"
	manifestMagic = "#sxnm-checkpoint"
	formatVersion = 2
)

// Phases recorded in the manifest.
const (
	// PhaseDetect: detection is under way; a resume skips completed
	// candidates and continues the others from their pass progress.
	PhaseDetect = "detection"
	// PhaseDone: every candidate's cluster set is durable.
	PhaseDone = "done"
)

type section struct {
	File string
	SHA  string
}

type clusterSection struct {
	Candidate string
	section
}

type pairsSection struct {
	Candidate string
	NextPass  int
	section
}

type manifest struct {
	Seq      int // highest section sequence number handed out
	ConfigFP string
	DocFP    string
	Phase    string
	Clusters []clusterSection
	Pairs    []pairsSection
}

// clustersFor returns the completed-candidate section, or nil.
func (m *manifest) clustersFor(candidate string) *clusterSection {
	for i := range m.Clusters {
		if m.Clusters[i].Candidate == candidate {
			return &m.Clusters[i]
		}
	}
	return nil
}

// dropPairs removes the in-progress section for candidate, returning
// the file it referenced ("" if none).
func (m *manifest) dropPairs(candidate string) string {
	for i := range m.Pairs {
		if m.Pairs[i].Candidate == candidate {
			old := m.Pairs[i].File
			m.Pairs = append(m.Pairs[:i], m.Pairs[i+1:]...)
			return old
		}
	}
	return ""
}

func encodeManifest(m *manifest) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\tv%d\n", manifestMagic, formatVersion)
	fmt.Fprintf(&b, "seq\t%d\n", m.Seq)
	fmt.Fprintf(&b, "config\t%s\n", m.ConfigFP)
	fmt.Fprintf(&b, "document\t%s\n", m.DocFP)
	fmt.Fprintf(&b, "phase\t%s\n", m.Phase)
	for _, c := range m.Clusters {
		fmt.Fprintf(&b, "clusters\t%s\t%s\t%s\n", escapeField(c.Candidate), c.File, c.SHA)
	}
	for _, p := range m.Pairs {
		fmt.Fprintf(&b, "pairs\t%s\t%d\t%s\t%s\n", escapeField(p.Candidate), p.NextPass, p.File, p.SHA)
	}
	body := b.String()
	sum := sha256.Sum256([]byte(body))
	return []byte(body + "#checksum\t" + hex.EncodeToString(sum[:]) + "\n")
}

// parseManifest validates and decodes manifest bytes. Any deviation —
// truncation, a flipped byte, unknown directives, malformed fields —
// is a structural corruption error; it never panics on arbitrary
// input (fuzzed by FuzzParseManifest).
func parseManifest(data []byte) (*manifest, error) {
	corrupt := func(format string, args ...any) (*manifest, error) {
		return nil, fmt.Errorf("manifest: "+format, args...)
	}
	text := string(data)
	// The self-checksum line covers everything before it; verify first
	// so all later diagnostics run on bytes known to be intact.
	idx := strings.LastIndex(text, "#checksum\t")
	if idx < 0 || !strings.HasSuffix(text, "\n") {
		return corrupt("missing checksum trailer (torn write?)")
	}
	body, trailer := text[:idx], text[idx:]
	wantSum := strings.TrimSuffix(strings.TrimPrefix(trailer, "#checksum\t"), "\n")
	if !isHexDigest(wantSum) {
		return corrupt("malformed checksum trailer")
	}
	sum := sha256.Sum256([]byte(body))
	if hex.EncodeToString(sum[:]) != wantSum {
		return corrupt("checksum mismatch")
	}

	m := &manifest{}
	seen := map[string]bool{}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) == 0 || lines[0] != manifestMagic+"\tv"+strconv.Itoa(formatVersion) {
		f := strings.SplitN(lines[0], "\t", 2)
		if len(f) == 2 && f[0] == manifestMagic {
			return nil, &MismatchError{Field: "format-version",
				Want: "v" + strconv.Itoa(formatVersion), Got: f[1]}
		}
		return corrupt("bad magic line")
	}
	candidates := map[string]bool{}
	for lineNo, line := range lines[1:] {
		f := strings.Split(line, "\t")
		bad := func(why string) (*manifest, error) {
			return corrupt("line %d: %s", lineNo+2, why)
		}
		switch f[0] {
		case "seq", "config", "document", "phase":
			if len(f) != 2 {
				return bad("want 2 fields")
			}
			if seen[f[0]] {
				return bad("duplicate " + f[0])
			}
			seen[f[0]] = true
			switch f[0] {
			case "seq":
				n, err := strconv.Atoi(f[1])
				if err != nil || n < 0 {
					return bad("malformed seq")
				}
				m.Seq = n
			case "config":
				if !isHexDigest(f[1]) {
					return bad("malformed config fingerprint")
				}
				m.ConfigFP = f[1]
			case "document":
				if !isHexDigest(f[1]) {
					return bad("malformed document fingerprint")
				}
				m.DocFP = f[1]
			case "phase":
				if f[1] != PhaseDetect && f[1] != PhaseDone {
					return bad("unknown phase " + strconv.Quote(f[1]))
				}
				m.Phase = f[1]
			}
		case "clusters":
			if len(f) != 4 || !isSectionFile(f[2]) || !isHexDigest(f[3]) {
				return bad("malformed clusters section")
			}
			name := unescapeField(f[1])
			if candidates["c:"+name] {
				return bad("duplicate clusters section for " + strconv.Quote(name))
			}
			candidates["c:"+name] = true
			m.Clusters = append(m.Clusters, clusterSection{Candidate: name, section: section{File: f[2], SHA: f[3]}})
		case "pairs":
			if len(f) != 5 || !isSectionFile(f[3]) || !isHexDigest(f[4]) {
				return bad("malformed pairs section")
			}
			name := unescapeField(f[1])
			pass, err := strconv.Atoi(f[2])
			if err != nil || pass < 0 {
				return bad("malformed pairs pass")
			}
			if candidates["p:"+name] {
				return bad("duplicate pairs section for " + strconv.Quote(name))
			}
			candidates["p:"+name] = true
			m.Pairs = append(m.Pairs, pairsSection{Candidate: name, NextPass: pass, section: section{File: f[3], SHA: f[4]}})
		default:
			return bad("unknown directive " + strconv.Quote(f[0]))
		}
	}
	for _, key := range []string{"seq", "config", "document", "phase"} {
		if !seen[key] {
			return corrupt("missing %s line", key)
		}
	}
	return m, nil
}

func isHexDigest(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// isSectionFile accepts only the bare file names the writer generates,
// so a tampered manifest cannot point reads outside the run directory.
func isSectionFile(s string) bool {
	if s == "" || s == "." || s == ".." {
		return false
	}
	return !strings.ContainsAny(s, "/\\\x00")
}

// escapeField percent-escapes the characters that carry structure in
// the manifest (and the percent itself).
func escapeField(s string) string {
	if !strings.ContainsAny(s, "\t\n\r%") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\t', '\n', '\r', '%':
			fmt.Fprintf(&b, "%%%02X", s[i])
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func unescapeField(s string) string {
	if !strings.ContainsRune(s, '%') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			if v, err := strconv.ParseUint(s[i+1:i+3], 16, 8); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
