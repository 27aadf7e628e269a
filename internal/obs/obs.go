// Package obs is the observability layer of the SXNM engine: a
// lightweight, dependency-free span/event tracing API, monotonic run
// metrics, and machine-readable run reports. It exists because the
// paper's own evaluation (Sec. 5) reasons about window/blocking
// trade-offs in terms of comparisons, filtered pairs, and per-phase
// runtimes — numbers an operator of a long-running deployment needs
// live, not post-hoc.
//
// The package is built for the engine's hot path: every entry point is
// safe on a nil *Observer (a nil receiver is a no-op), tracing is
// guarded by an atomic enabled flag so an engine run without any sink
// attached costs a pointer test per phase, and all counters are plain
// atomics. Span emission may happen from concurrent candidate workers,
// so sinks must be safe for concurrent use (every sink in this package
// is).
package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known span and event names emitted by the engine. The Collector
// sink interprets these to assemble a Report; external sinks may treat
// them as opaque strings.
const (
	// SpanParse covers reading and materializing the input document
	// (emitted by callers that own the parse, e.g. cmd/sxnm).
	SpanParse = "parse"
	// SpanKeyGen covers the key generation phase (Sec. 3.3).
	SpanKeyGen = "keygen"
	// SpanDetect covers the whole duplicate detection phase across all
	// candidates; its duration is wall-clock even under parallelism.
	SpanDetect = "detect"
	// SpanCandidate covers one candidate's detection end to end.
	SpanCandidate = "candidate"
	// SpanSlidingWindow covers all key passes of one candidate.
	SpanSlidingWindow = "sliding-window"
	// SpanPass covers a single key pass (sort + window slide).
	SpanPass = "pass"
	// SpanTransitiveClosure covers the union-find closure of one
	// candidate's duplicate pairs.
	SpanTransitiveClosure = "transitive-closure"
	// SpanCheckpoint covers one durable checkpoint write.
	SpanCheckpoint = "checkpoint"
	// SpanSpill covers one external-sort spill of a candidate's GK rows
	// for a single key pass.
	SpanSpill = "spill-sort"
	// EventResume records that a run was seeded with recovered state.
	EventResume = "resume"
	// EventInterrupted records a run cut short by cancellation, a
	// deadline, or a resource limit.
	EventInterrupted = "interrupted"
)

// Attr is one key/value attribute attached to a span or event. Values
// are restricted to JSON-friendly scalars (string, int64, float64,
// bool) by the constructors.
type Attr struct {
	Key   string `json:"k"`
	Value any    `json:"v"`
}

// UnmarshalJSON restores the constructor types on the way back in:
// integral JSON numbers decode to int64, fractional ones to float64,
// so a trace round-tripped through JSONL compares equal to the
// original records.
func (a *Attr) UnmarshalJSON(data []byte) error {
	var raw struct {
		Key   string          `json:"k"`
		Value json.RawMessage `json:"v"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	a.Key = raw.Key
	if len(raw.Value) == 0 {
		a.Value = nil
		return nil
	}
	switch raw.Value[0] {
	case '"':
		var s string
		if err := json.Unmarshal(raw.Value, &s); err != nil {
			return err
		}
		a.Value = s
	case 't', 'f':
		var b bool
		if err := json.Unmarshal(raw.Value, &b); err != nil {
			return err
		}
		a.Value = b
	case 'n':
		a.Value = nil
	default:
		var num json.Number
		if err := json.Unmarshal(raw.Value, &num); err != nil {
			return err
		}
		if i, err := num.Int64(); err == nil {
			a.Value = i
		} else {
			f, err := num.Float64()
			if err != nil {
				return err
			}
			a.Value = f
		}
	}
	return nil
}

// String makes a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int makes an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: int64(v)} }

// Int64 makes a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float makes a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool makes a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Record is one finished span or point event as delivered to sinks.
// Spans are emitted once, at End, with their measured duration; events
// have zero duration. Records are immutable after emission.
type Record struct {
	Kind   string        `json:"kind"` // "span" or "event"
	Name   string        `json:"name"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"` // 0 = no parent
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"` // 0 for events
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute and whether it is set.
// When a key was set more than once, the latest value wins.
func (r *Record) Attr(key string) (any, bool) {
	for i := len(r.Attrs) - 1; i >= 0; i-- {
		if r.Attrs[i].Key == key {
			return r.Attrs[i].Value, true
		}
	}
	return nil, false
}

// AttrInt returns the named attribute as an int64 (0 when absent or
// not an integer).
func (r *Record) AttrInt(key string) int64 {
	v, _ := r.Attr(key)
	n, _ := v.(int64)
	return n
}

// AttrString returns the named attribute as a string ("" when absent).
func (r *Record) AttrString(key string) string {
	v, _ := r.Attr(key)
	s, _ := v.(string)
	return s
}

// AttrBool returns the named attribute as a bool (false when absent).
func (r *Record) AttrBool(key string) bool {
	v, _ := r.Attr(key)
	b, _ := v.(bool)
	return b
}

// Sink receives finished spans and events. Emit may be called from
// concurrent goroutines (the engine runs candidates in parallel) and
// must not retain the record's Attrs slice beyond the call unless it
// copies it — the engine never mutates a record after emission, but
// sinks that buffer should still treat records as values.
type Sink interface {
	Emit(r Record)
}

// Observer carries one run's tracing and metrics state. The zero value
// is not usable; construct with New. All methods are safe on a nil
// receiver, so engine code threads an optional *Observer without
// guards. Attach sinks before the run starts; AddSink is safe
// concurrently but records emitted before attachment are lost.
type Observer struct {
	enabled atomic.Bool
	tracing atomic.Bool // at least one sink attached
	nextID  atomic.Int64
	mu      sync.RWMutex
	sinks   []Sink
	metrics Metrics
}

// New returns an enabled Observer with the given sinks attached.
func New(sinks ...Sink) *Observer {
	o := &Observer{}
	o.enabled.Store(true)
	for _, s := range sinks {
		o.AddSink(s)
	}
	return o
}

// Enabled reports whether the observer collects anything at all. The
// engine checks it once per run and treats a disabled observer exactly
// like a nil one.
func (o *Observer) Enabled() bool { return o != nil && o.enabled.Load() }

// SetEnabled flips the atomic master switch. Disabling an observer
// mid-run stops new spans and metric updates at the next phase
// boundary; it does not retract anything already emitted.
func (o *Observer) SetEnabled(v bool) {
	if o != nil {
		o.enabled.Store(v)
	}
}

// AddSink attaches a sink. Safe for concurrent use.
func (o *Observer) AddSink(s Sink) {
	if o == nil || s == nil {
		return
	}
	o.mu.Lock()
	o.sinks = append(o.sinks, s)
	o.mu.Unlock()
	o.tracing.Store(true)
}

// Metrics returns the observer's metric set, nil for a nil observer.
func (o *Observer) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return &o.metrics
}

// Span is an in-flight span handle. A nil *Span (returned when tracing
// is off) absorbs SetAttr/Child/Event/End calls for free, so
// instrumentation sites need no conditionals.
type Span struct {
	o      *Observer
	id     int64
	parent int64
	name   string
	start  time.Time
	mu     sync.Mutex // SetAttr may race with itself across helpers
	attrs  []Attr
	ended  atomic.Bool
}

// StartSpan opens a root span. Returns nil when tracing is off (no
// sink attached or observer disabled/nil).
func (o *Observer) StartSpan(name string, attrs ...Attr) *Span {
	return o.startSpan(0, name, attrs)
}

func (o *Observer) startSpan(parent int64, name string, attrs []Attr) *Span {
	if o == nil || !o.enabled.Load() || !o.tracing.Load() {
		return nil
	}
	return &Span{
		o:      o,
		id:     o.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
}

// Event emits a point event with no duration.
func (o *Observer) Event(name string, attrs ...Attr) {
	if o == nil || !o.enabled.Load() || !o.tracing.Load() {
		return
	}
	o.emit(Record{
		Kind:  "event",
		Name:  name,
		ID:    o.nextID.Add(1),
		Start: time.Now(),
		Attrs: attrs,
	})
}

func (o *Observer) emit(r Record) {
	o.mu.RLock()
	sinks := o.sinks
	o.mu.RUnlock()
	for _, s := range sinks {
		s.Emit(r)
	}
}

// Child opens a sub-span of s. On a nil span it degrades to a nil
// span, keeping the chain allocation-free when tracing is off.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.o.startSpan(s.id, name, attrs)
}

// Event emits a point event parented to s.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.o.emit(Record{
		Kind:   "event",
		Name:   name,
		ID:     s.o.nextID.Add(1),
		Parent: s.id,
		Start:  time.Now(),
		Attrs:  attrs,
	})
}

// SetAttr appends attributes to the span. Later values for the same
// key win in the accessor helpers of Record.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// End finishes the span and emits it to every sink. End is idempotent:
// only the first call emits.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	attrs := s.attrs
	s.mu.Unlock()
	s.o.emit(Record{
		Kind:   "span",
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		Start:  s.start,
		Dur:    time.Since(s.start),
		Attrs:  attrs,
	})
}
