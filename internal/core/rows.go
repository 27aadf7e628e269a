package core

import (
	"bytes"
	"slices"
	"time"

	"repro/internal/config"
	"repro/internal/keygen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// rowBuilder turns one document's element and text events into GK rows
// (Sec. 3.3) in a single pass: it decides candidate instances and the
// values of their relative paths on the open-tag stack, so neither a
// document tree nor a candidate subtree is ever built. Both key
// generation drivers feed it: GenerateKeysStream from scanner tokens,
// GenerateKeys by replaying a parsed tree.
//
// Every path of the xpath subset is compiled into a pathProg, a list of
// child steps. Each open element carries the set of program states its
// children can advance (mstate: "this element matched steps 0..step-1
// of prog"), so a match is decided at its start tag:
//
//   - a name or "*" test and an [@a='v'] test read the start tag;
//   - [n] counts the matching children of the state's element;
//   - a leading "//" keeps step 0 alive on every descendant of the
//     context element.
//
// A matched final step either opens a candidate instance (whose row is
// reserved at once, so tables keep document order and descendant
// instances register with it in preorder) or captures a value: an
// attribute at the start tag, or the element's direct character data,
// collected until its end tag and trimmed as xmltree.Node.Text trims.
// Values reach the row in xpath.Path.SelectValues order: grouped by the
// element that matched step 0, then in document order. Only captured
// values and the rows themselves allocate.
type rowBuilder struct {
	cfg    *config.Config
	lim    Limits
	tables map[string]*GKTable // the empty tables the rows go to
	progs  []pathProg
	plans  []candPlan
	rows   []rowChunks

	states []mstate
	frames []frame
	pend   []pendText
	text   []byte
	open   []instance
	seq    int // start events so far: the match order of elements

	// The current start event's attributes: scanner views or tree
	// attributes, whichever driver is feeding.
	sattrs []xmltree.ScanAttr
	dattrs []xmltree.Attr

	// The row being finished, read by first through firstFn (a method
	// value made once, so generating a key allocates no closure): its
	// plan, values, and each slot's values as vals[off[s]:off[s+1]].
	plan    *candPlan
	vals    []string
	off     []int
	pos     []int // finishRow scratch
	firstFn func(pathID int) string

	// Slabs the rows' key, value and OD slices are carved from.
	strSlab []string
	odSlab  [][]string
}

// pathProg is a compiled candidate or relative value path.
type pathProg struct {
	steps []xpath.Step // child steps only
	// desc marks a leading "//": step 0 matches at any depth below the
	// context element.
	desc bool
	// rootName marks an absolute candidate path without "//": its step
	// 0 is the document's root element, tested by name alone (as
	// xpath.Path.SelectDocument does).
	rootName bool
	cand     int    // candidate index of a candidate path; -1 for a value path
	slot     int    // value path: value slot in the candidate's row
	attr     string // value path: attribute read; "" reads element text
}

// candPlan is one candidate's value extraction: one slot per relative
// path that an OD entry or key reads.
type candPlan struct {
	c       *config.Candidate
	keys    []keygen.Key
	progs   []int32 // value programs with child steps
	self    []int32 // value programs without child steps: the instance element's own values
	slotPID []int   // slot -> PathDef ID
	odSlot  []int   // OD entry -> slot
}

// mstate is one program state of an open element: its children may
// match prog's step; anchor is the match order of the element that
// matched step 0 on the way here, count the children matching step so
// far (for [n]), and inst the open instance a value program extracts
// for.
type mstate struct {
	prog, step, inst, count int32
	anchor                  int
}

// frame is one open element: where its children's states, its pending
// text captures and its direct text start, and whether it opened a
// candidate instance.
type frame struct {
	lo, pend, text int
	inst           bool
}

// pendText is a text capture waiting for its element's end tag.
type pendText struct {
	inst, slot  int32
	anchor, seq int
}

// capture is one extracted value of an open instance with its order
// key.
type capture struct {
	slot        int32
	anchor, seq int
	val         string
}

// instance is an open candidate instance: its reserved row and the
// values captured for it so far.
type instance struct {
	cand int
	row  *GKRow
	idx  int // the row's index in its table
	caps []capture
}

// newRowBuilder compiles cfg's candidate and relative paths and
// resolves its tables. The configuration must be validated.
func newRowBuilder(cfg *config.Config, lim Limits) (*rowBuilder, error) {
	tables, err := newGKTables(cfg)
	if err != nil {
		return nil, err
	}
	b := &rowBuilder{
		cfg:    cfg,
		lim:    lim,
		tables: tables,
		plans:  make([]candPlan, len(cfg.Candidates)),
		rows:   make([]rowChunks, len(cfg.Candidates)),
	}
	b.firstFn = b.first
	b.frames = append(b.frames, frame{}) // the document, above the root element
	for k := range cfg.Candidates {
		c := &cfg.Candidates[k]
		abs := c.AbsPath()
		p := compileProg(abs)
		p.cand = k
		p.rootName = !abs.Descendant
		b.progs = append(b.progs, p)
		b.states = append(b.states, mstate{prog: int32(len(b.progs) - 1), inst: -1})
	}
	for k := range cfg.Candidates {
		c := &cfg.Candidates[k]
		plan := &b.plans[k]
		plan.c, plan.keys = c, c.CompiledKeys()
		used := make(map[int]bool, len(c.Paths))
		for _, od := range c.OD {
			used[od.PathID] = true
		}
		for _, key := range plan.keys {
			for _, part := range key.Parts {
				used[part.PathID] = true
			}
		}
		for i := range c.Paths {
			pd := &c.Paths[i]
			if !used[pd.ID] {
				continue
			}
			path := pd.Path()
			p := compileProg(path)
			p.cand, p.slot = -1, len(plan.slotPID)
			if last := path.Steps[len(path.Steps)-1]; last.Kind == xpath.AttrStep {
				p.attr = last.Name
			}
			plan.slotPID = append(plan.slotPID, pd.ID)
			b.progs = append(b.progs, p)
			if len(p.steps) == 0 {
				plan.self = append(plan.self, int32(len(b.progs)-1))
			} else {
				plan.progs = append(plan.progs, int32(len(b.progs)-1))
			}
		}
		for _, od := range c.OD {
			plan.odSlot = append(plan.odSlot, slices.Index(plan.slotPID, od.PathID))
		}
	}
	return b, nil
}

// compileProg keeps a path's child steps. A path with no child step
// (text() or @a alone) reads the context element itself; its "//" has
// nothing to apply to, as in xpath.Path.SelectNodes.
func compileProg(p *xpath.Path) pathProg {
	n := 0
	for n < len(p.Steps) && p.Steps[n].Kind == xpath.ChildStep {
		n++
	}
	return pathProg{steps: p.Steps[:n], desc: p.Descendant && n > 0, cand: -1}
}

// startScan opens the element of a scanner start token.
func (b *rowBuilder) startScan(sc *xmltree.Scanner) error {
	b.sattrs, b.dattrs = sc.Attrs(), nil
	return b.start(sc.Name(), sc.ID())
}

// startNode opens a tree element.
func (b *rowBuilder) startNode(n *xmltree.Node) error {
	b.sattrs, b.dattrs = nil, n.Attrs
	return b.start(n.Name, n.ID)
}

// start opens an element: it advances the parent's program states,
// opens a candidate instance when a candidate path ends here, and
// captures or schedules the values that end here.
func (b *rowBuilder) start(name string, id int) error {
	b.seq++
	seq := b.seq
	parent := b.frames[len(b.frames)-1]
	lo, pendLo := len(b.states), len(b.pend)
	cand := -1
	for i := parent.lo; i < lo; i++ {
		st := b.states[i]
		p := &b.progs[st.prog]
		if p.desc && st.step == 0 {
			b.states = append(b.states, mstate{prog: st.prog, inst: st.inst})
		}
		s := &p.steps[st.step]
		if s.Name != "*" && s.Name != name {
			continue
		}
		if !p.rootName || st.step > 0 {
			if s.FilterAttr != "" && !b.attrIs(s.FilterAttr, s.FilterValue) {
				continue
			}
			if s.Index > 0 {
				b.states[i].count++
				if int(b.states[i].count) != s.Index {
					continue
				}
			}
		}
		anchor := st.anchor
		if st.step == 0 {
			anchor = seq
		}
		switch {
		case int(st.step)+1 < len(p.steps):
			b.states = append(b.states, mstate{prog: st.prog, step: st.step + 1, inst: st.inst, anchor: anchor})
		case p.cand >= 0:
			cand = max(cand, p.cand) // the later candidate wins an element
		default:
			b.capture(p, st.inst, anchor, seq)
		}
	}
	opened := cand >= 0
	if opened {
		if err := b.openInstance(cand, id, seq); err != nil {
			return err
		}
	}
	b.frames = append(b.frames, frame{lo: lo, pend: pendLo, text: len(b.text), inst: opened})
	return nil
}

// openInstance reserves the row of a candidate instance starting at
// the current element, registers it with the nearest open instance,
// and starts its value programs here.
func (b *rowBuilder) openInstance(k, id, seq int) error {
	rc := &b.rows[k]
	if err := b.lim.CheckRows(rc.n + 1); err != nil {
		return err
	}
	plan := &b.plans[k]
	if n := len(b.open); n > 0 {
		pr := b.open[n-1].row
		if pr.Desc == nil {
			pr.Desc = make(map[string][]int, 2)
		}
		pr.Desc[plan.c.Name] = append(pr.Desc[plan.c.Name], id)
	}
	row := rc.add(GKRow{EID: id})
	if n := len(b.open); n < cap(b.open) {
		b.open = b.open[:n+1]
		b.open[n].caps = b.open[n].caps[:0]
	} else {
		b.open = append(b.open, instance{})
	}
	inst := int32(len(b.open) - 1)
	b.open[inst].cand, b.open[inst].row, b.open[inst].idx = k, row, rc.n-1
	for _, pi := range plan.progs {
		b.states = append(b.states, mstate{prog: pi, inst: inst})
	}
	for _, pi := range plan.self {
		b.capture(&b.progs[pi], inst, seq, seq)
	}
	return nil
}

// capture records the value of p at the current element for instance
// inst: an attribute at once, text once the element ends.
func (b *rowBuilder) capture(p *pathProg, inst int32, anchor, seq int) {
	if p.attr == "" {
		b.pend = append(b.pend, pendText{inst: inst, slot: int32(p.slot), anchor: anchor, seq: seq})
		return
	}
	if v, ok := b.attrValue(p.attr); ok {
		o := &b.open[inst]
		o.caps = append(o.caps, capture{slot: int32(p.slot), anchor: anchor, seq: seq, val: v})
	}
}

// attrIs reports whether the current element's first attribute named
// name has the value want (xmltree.Node.Attr semantics).
func (b *rowBuilder) attrIs(name, want string) bool {
	for _, a := range b.sattrs {
		if a.Name == name {
			return string(a.Value) == want
		}
	}
	for _, a := range b.dattrs {
		if a.Name == name {
			return a.Value == want
		}
	}
	return false
}

// attrValue returns the current element's first attribute named name.
func (b *rowBuilder) attrValue(name string) (string, bool) {
	for _, a := range b.sattrs {
		if a.Name == name {
			return string(a.Value), true
		}
	}
	for _, a := range b.dattrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// textBytes and textString add character data to the current element;
// it is kept only while a text capture waits for the element.
func (b *rowBuilder) textBytes(data []byte) {
	if len(b.pend) > b.frames[len(b.frames)-1].pend {
		b.text = append(b.text, data...)
	}
}

func (b *rowBuilder) textString(data string) {
	if len(b.pend) > b.frames[len(b.frames)-1].pend {
		b.text = append(b.text, data...)
	}
}

// end closes the current element: its text captures complete, and its
// candidate instance, if it opened one, gets its row finished.
func (b *rowBuilder) end() {
	f := b.frames[len(b.frames)-1]
	if len(b.pend) > f.pend {
		if t := bytes.TrimSpace(b.text[f.text:]); len(t) > 0 {
			v := string(t)
			for _, pt := range b.pend[f.pend:] {
				o := &b.open[pt.inst]
				o.caps = append(o.caps, capture{slot: pt.slot, anchor: pt.anchor, seq: pt.seq, val: v})
			}
		}
		b.pend = b.pend[:f.pend]
		b.text = b.text[:f.text]
	}
	if f.inst {
		b.finishRow()
	}
	b.states = b.states[:f.lo]
	b.frames = b.frames[:len(b.frames)-1]
}

// finishRow fills the innermost open instance's reserved row from its
// captures, each path's values in xpath.Path.SelectValues order, and
// closes the instance.
func (b *rowBuilder) finishRow() {
	inst := &b.open[len(b.open)-1]
	plan := &b.plans[inst.cand]
	row := inst.row
	caps := inst.caps
	nslots := len(plan.slotPID)

	// Captures arrive in document order of completion; a slot's values
	// are out of SelectValues order only when its path's matches nest
	// (a "//" path whose step-0 elements nest). Sort then.
	if cap(b.off) <= nslots {
		b.off = make([]int, nslots+1)
	}
	b.off = b.off[:nslots+1]
	clear(b.off)
	last := b.pos[:0] // per slot: the index of its latest capture
	for s := 0; s < nslots; s++ {
		last = append(last, -1)
	}
	ordered := true
	for i, c := range caps {
		b.off[c.slot+1]++
		if j := last[c.slot]; j >= 0 && (caps[j].anchor > c.anchor || caps[j].anchor == c.anchor && caps[j].seq > c.seq) {
			ordered = false
		}
		last[c.slot] = i
	}
	if !ordered {
		slices.SortStableFunc(caps, func(x, y capture) int {
			if x.slot != y.slot {
				return int(x.slot - y.slot)
			}
			if x.anchor != y.anchor {
				return x.anchor - y.anchor
			}
			return x.seq - y.seq
		})
	}
	for s := 1; s <= nslots; s++ {
		b.off[s] += b.off[s-1]
	}
	vals := b.strings(len(caps))
	next := append(last[:0], b.off[:nslots]...)
	for _, c := range caps {
		vals[next[c.slot]] = c.val
		next[c.slot]++
	}
	b.pos = next

	b.plan, b.vals = plan, vals
	row.Keys = b.strings(len(plan.keys))
	for i, k := range plan.keys {
		row.Keys[i] = k.Generate(b.firstFn)
	}
	row.OD = b.odSlices(len(plan.odSlot))
	for i, s := range plan.odSlot {
		if lo, hi := b.off[s], b.off[s+1]; hi > lo {
			row.OD[i] = vals[lo:hi:hi]
		}
	}
	b.plan, b.vals = nil, nil
	b.open = b.open[:len(b.open)-1]
}

// first returns the first value of the row being finished for the
// path with ID pid, or "" (the key generator's lookup).
func (b *rowBuilder) first(pid int) string {
	for s, id := range b.plan.slotPID {
		if id == pid {
			if lo := b.off[s]; lo < b.off[s+1] {
				return b.vals[lo]
			}
			return ""
		}
	}
	return ""
}

// strings and odSlices carve a row's slices out of shared slabs,
// capped so an append can never run into a neighbour.
func (b *rowBuilder) strings(n int) []string {
	if n == 0 {
		return nil
	}
	if len(b.strSlab) < n {
		b.strSlab = make([]string, max(n, 1024))
	}
	s := b.strSlab[:n:n]
	b.strSlab = b.strSlab[n:]
	return s
}

func (b *rowBuilder) odSlices(n int) [][]string {
	if len(b.odSlab) < n {
		b.odSlab = make([][]string, max(n, 512))
	}
	s := b.odSlab[:n:n]
	b.odSlab = b.odSlab[n:]
	return s
}

// result hands the rows to their tables and ends key generation: the
// tables, or on an interruption the partial tables with the typed
// cause. A partial table keeps only the rows before its first
// still-open instance, so it is a prefix of the complete one.
func (b *rowBuilder) result(start time.Time, err error) (*KeyGenResult, error) {
	if err != nil && !isInterruption(err) {
		return nil, err
	}
	n := make([]int, len(b.rows))
	for k := range b.rows {
		n[k] = b.rows[k].n
	}
	for _, o := range b.open {
		n[o.cand] = min(n[o.cand], o.idx)
	}
	for k := range b.rows {
		b.tables[b.cfg.Candidates[k].Name].Rows = b.rows[k].rows(n[k])
	}
	return &KeyGenResult{Tables: b.tables, Duration: time.Since(start)}, err
}

// rowChunks accumulates one table's rows during key generation. Rows
// sit in chunks that never move, so a reserved row is filled in place
// when its instance closes, and the table receives its rows in one
// exact-size copy at the end instead of a row slice regrown (and every
// row re-copied) as it fills.
type rowChunks struct {
	chunks [][]GKRow
	n      int
}

// add stores row and returns a pointer to the stored copy, valid until
// rows is called.
func (rc *rowChunks) add(row GKRow) *GKRow {
	if len(rc.chunks) == 0 || len(rc.chunks[len(rc.chunks)-1]) == cap(rc.chunks[len(rc.chunks)-1]) {
		rc.chunks = append(rc.chunks, make([]GKRow, 0, min(max(rc.n, 64), 4096)))
	}
	last := &rc.chunks[len(rc.chunks)-1]
	*last = append(*last, row)
	rc.n++
	return &(*last)[len(*last)-1]
}

// rows returns the first n accumulated rows in insertion order (nil if
// none).
func (rc *rowChunks) rows(n int) []GKRow {
	if n == 0 {
		return nil
	}
	out := make([]GKRow, 0, n)
	for _, c := range rc.chunks {
		out = append(out, c[:min(len(c), n-len(out))]...)
	}
	return out
}
