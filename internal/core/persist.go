package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
)

// GK persistence: the paper stores the generated keys in "a temporary
// relation GK for every candidate" (Sec. 3.1). WriteGK/ReadGK mirror
// that with a line-oriented TSV dump, so the two SXNM phases can run
// as separate processes (generate keys once, experiment with windows
// and thresholds many times without re-reading the XML).
//
// Format (UTF-8, one section per candidate):
//
//	#gk	<candidate>	keys=<n>	od=<m>	rows=<r>
//	<eid>	<key1>	…	<keyn>	<od1>	…	<odm>	<desc>
//
// OD cells hold the |-joined values of one OD entry; the desc cell
// holds `name=eid,eid;name2=…`. Tabs, newlines, percent signs, pipes,
// and the desc separators are percent-escaped inside values. The
// rows count lets the reader detect a truncated section; dumps from
// older versions without it are still accepted.

// WriteGK serializes the key generation result.
func WriteGK(w io.Writer, kg *KeyGenResult) error {
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(kg.Tables))
	for name := range kg.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := kg.Tables[name]
		nKeys := len(t.Candidate.CompiledKeys())
		nOD := len(t.Candidate.OD)
		fmt.Fprintf(bw, "#gk\t%s\tkeys=%d\tod=%d\trows=%d\n", escapeGK(name), nKeys, nOD, len(t.Rows))
		for i := range t.Rows {
			row := &t.Rows[i]
			bw.WriteString(strconv.Itoa(row.EID))
			for _, k := range row.Keys {
				bw.WriteByte('\t')
				bw.WriteString(escapeGK(k))
			}
			for _, vals := range row.OD {
				bw.WriteByte('\t')
				for j, v := range vals {
					if j > 0 {
						bw.WriteByte('|')
					}
					bw.WriteString(escapeGK(v))
				}
			}
			bw.WriteByte('\t')
			bw.WriteString(encodeDesc(row.Desc))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// ReadGK deserializes a dump produced by WriteGK against the same
// (validated) configuration; candidate names, key counts, and OD
// widths must match.
func ReadGK(r io.Reader, cfg *config.Config) (*KeyGenResult, error) {
	tables, err := newGKTables(cfg)
	if err != nil {
		return nil, err
	}
	// seen holds the EIDs read so far per table: the pass order breaks
	// key ties by EID, which is a total order only if no EID repeats.
	seen := make(map[*GKTable]map[int]bool, len(tables))

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var cur *GKTable
	nKeys, nOD := 0, 0
	wantRows, gotRows := -1, 0 // -1: header without rows= (older dump)
	lineNo := 0
	// checkRows verifies a finished section against its declared row
	// count, catching dumps truncated at a line boundary (which no
	// per-line check can see).
	checkRows := func() error {
		if cur != nil && wantRows >= 0 && gotRows != wantRows {
			return fmt.Errorf("core: gk: candidate %q truncated: header declares %d rows, got %d",
				cur.Candidate.Name, wantRows, gotRows)
		}
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#gk\t") {
			if err := checkRows(); err != nil {
				return nil, err
			}
			parts := strings.Split(line, "\t")
			if len(parts) != 4 && len(parts) != 5 {
				return nil, fmt.Errorf("core: gk line %d: malformed header", lineNo)
			}
			name := unescapeGK(parts[1])
			t, ok := tables[name]
			if !ok {
				return nil, fmt.Errorf("core: gk line %d: unknown candidate %q", lineNo, name)
			}
			var err1, err2 error
			nKeys, err1 = headerCount(parts[2], "keys")
			nOD, err2 = headerCount(parts[3], "od")
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("core: gk line %d: malformed header counts", lineNo)
			}
			wantRows, gotRows = -1, 0
			if len(parts) == 5 {
				if wantRows, err1 = headerCount(parts[4], "rows"); err1 != nil || wantRows < 0 {
					return nil, fmt.Errorf("core: gk line %d: malformed header counts", lineNo)
				}
			}
			if nKeys != len(t.Candidate.CompiledKeys()) || nOD != len(t.Candidate.OD) {
				return nil, fmt.Errorf("core: gk line %d: candidate %q has %d keys/%d od in dump but %d/%d in config",
					lineNo, name, nKeys, nOD, len(t.Candidate.CompiledKeys()), len(t.Candidate.OD))
			}
			cur = t
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("core: gk line %d: row before header", lineNo)
		}
		cand := cur.Candidate.Name
		parts := strings.Split(line, "\t")
		if len(parts) != 1+nKeys+nOD+1 {
			return nil, fmt.Errorf("core: gk line %d: candidate %q: want %d fields, got %d",
				lineNo, cand, 1+nKeys+nOD+1, len(parts))
		}
		eid, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("core: gk line %d: candidate %q: bad eid %q", lineNo, cand, parts[0])
		}
		row := GKRow{EID: eid, Keys: make([]string, nKeys), OD: make([][]string, nOD)}
		for i := 0; i < nKeys; i++ {
			row.Keys[i] = unescapeGK(parts[1+i])
		}
		for i := 0; i < nOD; i++ {
			cell := parts[1+nKeys+i]
			if cell != "" {
				for _, v := range strings.Split(cell, "|") {
					row.OD[i] = append(row.OD[i], unescapeGK(v))
				}
			}
		}
		desc, err := decodeDesc(parts[len(parts)-1])
		if err != nil {
			return nil, fmt.Errorf("core: gk line %d: candidate %q: %w", lineNo, cand, err)
		}
		row.Desc = desc
		if seen[cur] == nil {
			seen[cur] = make(map[int]bool)
		}
		if seen[cur][eid] {
			return nil, fmt.Errorf("core: gk line %d: candidate %q: repeated eid %d", lineNo, cand, eid)
		}
		seen[cur][eid] = true
		cur.Rows = append(cur.Rows, row)
		gotRows++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: gk: %w", err)
	}
	if err := checkRows(); err != nil {
		return nil, err
	}
	return &KeyGenResult{Tables: tables}, nil
}

func headerCount(s, key string) (int, error) {
	rest, ok := strings.CutPrefix(s, key+"=")
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	return strconv.Atoi(rest)
}

func encodeDesc(desc map[string][]int) string {
	if len(desc) == 0 {
		return ""
	}
	names := make([]string, 0, len(desc))
	for name := range desc {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(escapeGK(name))
		b.WriteByte('=')
		for j, eid := range desc[name] {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(eid))
		}
	}
	return b.String()
}

func decodeDesc(s string) (map[string][]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string][]int)
	for _, group := range strings.Split(s, ";") {
		name, list, ok := strings.Cut(group, "=")
		if !ok {
			return nil, fmt.Errorf("malformed desc group %q", group)
		}
		var eids []int
		if list != "" {
			for _, part := range strings.Split(list, ",") {
				eid, err := strconv.Atoi(part)
				if err != nil {
					return nil, fmt.Errorf("malformed desc eid %q", part)
				}
				eids = append(eids, eid)
			}
		}
		out[unescapeGK(name)] = eids
	}
	return out, nil
}

// escapeGK percent-escapes the characters that carry structure in the
// dump format. It works on bytes (all structural characters are
// ASCII), so even invalid UTF-8 survives the round trip unchanged.
func escapeGK(s string) string {
	if !strings.ContainsAny(s, "\t\n\r%|;=,") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\t', '\n', '\r', '%', '|', ';', '=', ',':
			fmt.Fprintf(&b, "%%%02X", s[i])
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func unescapeGK(s string) string {
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
