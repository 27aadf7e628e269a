package sxnm

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/xmltree"
)

// WriteClustersCSV writes the detected duplicate groups as CSV with
// columns candidate, clusterID, elementID, text (a short description
// of the element). Singleton clusters are omitted — the CSV lists
// duplicates, not the whole partition.
func WriteClustersCSV(w io.Writer, doc *Document, res *Result) error {
	idx := doc.IndexByID()
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"candidate", "cluster", "element", "text"}); err != nil {
		return err
	}
	for _, s := range Summarize(res) {
		for _, c := range res.Clusters[s.Candidate].NonSingletons() {
			for _, eid := range c.Members {
				text := ""
				if n := idx[eid]; n != nil {
					text = truncate(n.DeepText(), 120)
				}
				if err := cw.Write([]string{
					s.Candidate,
					strconv.Itoa(c.ID),
					strconv.Itoa(eid),
					text,
				}); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteClustersXML writes the full cluster sets (the CS relations of
// Def. 1) as an XML document, candidates in name order:
//
//	<?xml version="1.0" encoding="UTF-8"?>
//	<sxnm-clusters>
//	  <candidate name="movie">
//	    <cluster id="1" duplicates="true">
//	      <element id="3"/>
//	      <element id="17"/>
//	    </cluster>
//	    ...
//	  </candidate>
//	</sxnm-clusters>
//
// The output is streamed from the cluster sets, without building a
// document tree, in the bytes the xmltree serializer writes for that
// tree with a two-space indent and the XML declaration.
func WriteClustersXML(w io.Writer, res *Result) error {
	names := make([]string, 0, len(res.Clusters))
	for name := range res.Clusters {
		names = append(names, name)
	}
	sort.Strings(names)
	// bufio.Writer errors are sticky: the final Flush reports the first.
	bw := bufio.NewWriter(w)
	bw.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")
	if len(names) == 0 {
		bw.WriteString("<sxnm-clusters/>\n")
		return bw.Flush()
	}
	bw.WriteString("<sxnm-clusters>")
	var num []byte
	for _, name := range names {
		bw.WriteString("\n  <candidate name=\"")
		xmltree.EscapeAttr(bw, name)
		cs := res.Clusters[name]
		if cs.Len() == 0 {
			bw.WriteString("\"/>")
			continue
		}
		bw.WriteString("\">")
		for _, c := range cs.Clusters {
			bw.WriteString("\n    <cluster id=\"")
			num = strconv.AppendInt(num[:0], int64(c.ID), 10)
			bw.Write(num)
			if len(c.Members) > 1 {
				bw.WriteString("\" duplicates=\"true\">")
			} else {
				bw.WriteString("\">")
			}
			for _, eid := range c.Members {
				bw.WriteString("\n      <element id=\"")
				num = strconv.AppendInt(num[:0], int64(eid), 10)
				bw.Write(num)
				bw.WriteString("\"/>")
			}
			bw.WriteString("\n    </cluster>")
		}
		bw.WriteString("\n  </candidate>")
	}
	bw.WriteString("\n</sxnm-clusters>\n")
	return bw.Flush()
}

// WriteStats writes the phase timings and counters in the layout of
// the paper's Experiment set 2 (KG, SW, TC, DD).
func WriteStats(w io.Writer, res *Result) error {
	st := res.Stats
	_, err := fmt.Fprintf(w,
		"KG=%v SW=%v TC=%v DD=%v comparisons=%d filtered=%d duplicate-pairs=%d\n",
		st.KeyGen, st.SlidingWindow, st.TransitiveClosure, st.DuplicateDetection(),
		st.Comparisons, st.FilteredOut, st.DuplicatePairs)
	return err
}

func truncate(s string, max int) string {
	runes := []rune(s)
	if len(runes) <= max {
		return s
	}
	return string(runes[:max]) + "..."
}
