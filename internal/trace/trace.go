// Package trace defines the simulation trace format consumed by the LOC
// checkers and distribution analyzers.
//
// A trace is an ordered stream of events. Each event has a name (e.g.
// "forward", "fifo", or a microengine-prefixed name such as "m2_pipeline")
// and carries the five annotations from the paper's Figure 3:
//
//	cycle      core reference-clock cycles elapsed since simulation start
//	time       simulated time in microseconds
//	energy     cumulative energy consumed, in microjoules
//	total_pkt  total packets received or transmitted so far
//	total_bit  total bits received or transmitted so far
//
// Traces may carry additional free-form annotations (for example the idle
// fraction attached to per-window "idle" events used in the paper's §4.2
// idle-time study); the five standard ones are always present.
//
// Two on-disk encodings are provided: a human-readable text format mirroring
// the paper's Figure 4 snapshot, and a compact binary format for long runs.
// Both stream — readers never hold more than one event in memory, so the
// 8·10⁶-cycle runs of the paper analyze in O(1) space.
//
// Both directions are allocation-free in steady state, and both lend out
// the Extra map: a Sink sees an event only for the duration of Emit, and an
// event a Source returns keeps its Extra only until the next call to Next.
// Code that keeps events copies them with Event.Clone.
package trace

import (
	"maps"
	"slices"
	"strconv"
)

// Standard annotation names (paper Figure 3).
const (
	AnnCycle    = "cycle"
	AnnTime     = "time"
	AnnEnergy   = "energy"
	AnnTotalPkt = "total_pkt"
	AnnTotalBit = "total_bit"
)

// StandardAnnotations lists the five always-present annotations in canonical
// column order.
var StandardAnnotations = []string{AnnCycle, AnnTime, AnnEnergy, AnnTotalPkt, AnnTotalBit}

// Well-known event names. Microengine-scoped events are prefixed, e.g.
// "m2_pipeline" is a pipeline event from ME2.
const (
	EvForward  = "forward"  // an IP packet was forwarded (transmitted)
	EvFifo     = "fifo"     // an IP packet entered the processing queue
	EvPipeline = "pipeline" // an instruction entered an execution pipeline
	EvIdle     = "idle"     // per-window idle-fraction sample (extension)
	EvVFChange = "vfchange" // a DVS voltage/frequency transition (extension)
	EvDrop     = "drop"     // a packet was dropped at the RFIFO (extension)
	// Fault-injection events (extension): onset and end of an injected
	// fault window, annotated with kind/unit/magnitude codes, and a packet
	// lost to a port-drop fault. See internal/fault.
	EvFault      = "fault"
	EvFaultClear = "fault_clear"
	EvFaultDrop  = "fault_drop"
)

// MEEvent returns the ME-prefixed form of a base event name, e.g.
// MEEvent(2, EvPipeline) == "m2_pipeline".
func MEEvent(me int, base string) string { return "m" + strconv.Itoa(me) + "_" + base }

// Event is one trace record.
type Event struct {
	Name string
	// Standard annotations, kept as struct fields for speed: simulations
	// emit millions of events and map allocation per event would dominate.
	Cycle    uint64
	Time     float64 // microseconds
	Energy   float64 // microjoules
	TotalPkt uint64
	TotalBit uint64
	// Extra holds non-standard annotations; nil for most events.
	Extra map[string]float64
}

// Annotation returns the named annotation value. Unknown names report ok =
// false; LOC semantic analysis turns that into a user-facing error before
// evaluation begins, so evaluators may treat !ok as a bug.
func (e *Event) Annotation(name string) (v float64, ok bool) {
	switch name {
	case AnnCycle:
		return float64(e.Cycle), true
	case AnnTime:
		return e.Time, true
	case AnnEnergy:
		return e.Energy, true
	case AnnTotalPkt:
		return float64(e.TotalPkt), true
	case AnnTotalBit:
		return float64(e.TotalBit), true
	}
	v, ok = e.Extra[name]
	return v, ok
}

// SetExtra attaches a non-standard annotation.
func (e *Event) SetExtra(name string, v float64) {
	if e.Extra == nil {
		e.Extra = make(map[string]float64, 2)
	}
	e.Extra[name] = v
}

// Clone returns a copy of e with its own Extra map, for code that keeps an
// event past the Emit or Next call that lent it.
func (e *Event) Clone() Event {
	cp := *e
	cp.Extra = maps.Clone(e.Extra)
	return cp
}

// String renders one event in the text-trace line format.
func (e *Event) String() string {
	line, _ := e.appendText(nil, nil)
	return string(line)
}

// appendText appends the event's text-trace line, without the newline, to
// dst: the five standard annotations, the name, then the extras as
// key=value pairs in key order. keys is scratch for sorting the extra
// names; both grown slices are returned so a caller can reuse them.
func (e *Event) appendText(dst []byte, keys []string) ([]byte, []string) {
	dst = strconv.AppendUint(dst, e.Cycle, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, e.Time, 'f', 3, 64)
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, e.Energy, 'f', 6, 64)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, e.TotalPkt, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, e.TotalBit, 10)
	dst = append(dst, ' ')
	dst = append(dst, e.Name...)
	keys = sortedKeys(keys, e.Extra)
	for _, k := range keys {
		dst = append(dst, ' ')
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = strconv.AppendFloat(dst, e.Extra[k], 'g', -1, 64)
	}
	return dst, keys
}

// sortedKeys refills keys with the names of extra in sorted order, the
// order both encodings write them in for determinism.
func sortedKeys(keys []string, extra map[string]float64) []string {
	keys = keys[:0]
	for k := range extra {
		keys = append(keys, k)
	}
	if len(keys) > 1 {
		slices.Sort(keys)
	}
	return keys
}

// Source is a stream of events. Next returns the next event, or ok = false
// at end of stream; a non-nil error reports a malformed stream. Sources are
// single-pass.
//
// The returned event's Extra map is owned by the source: the file readers
// clear and refill one map on every Next, so that reading allocates
// nothing. A caller that keeps an event past the next call must copy it
// with Event.Clone. Name is an ordinary string and safe to keep.
type Source interface {
	Next() (ev Event, ok bool, err error)
}

// Sink consumes events as a simulation produces them. The event and its
// Extra map are valid only for the duration of Emit: producers reuse both
// for the next event, so a sink must neither modify them nor keep a
// reference past the call. A sink that keeps an event must copy it with
// Event.Clone, as Collector does.
type Sink interface {
	Emit(ev *Event) error
}

// SliceSource adapts an in-memory event slice to a Source; used heavily in
// tests and by the live analyzer plumbing.
type SliceSource struct {
	Events []Event
	pos    int
}

// Next implements Source.
func (s *SliceSource) Next() (Event, bool, error) {
	if s.pos >= len(s.Events) {
		return Event{}, false, nil
	}
	ev := s.Events[s.pos]
	s.pos++
	return ev, true, nil
}

// Collector is a Sink that appends every event to a slice.
type Collector struct {
	Events []Event
}

// Emit implements Sink.
func (c *Collector) Emit(ev *Event) error {
	c.Events = append(c.Events, ev.Clone())
	return nil
}

// Source converts the collected events into a replayable Source.
func (c *Collector) Source() *SliceSource { return &SliceSource{Events: c.Events} }

// MultiSink fans one event stream out to several sinks (e.g. a file writer
// plus a live analyzer).
type MultiSink []Sink

// Emit implements Sink, stopping at the first sink error.
func (m MultiSink) Emit(ev *Event) error {
	for _, s := range m {
		if err := s.Emit(ev); err != nil {
			return err
		}
	}
	return nil
}

// FilterSink forwards only events whose name is in the allow set. A nil or
// empty allow set forwards everything.
type FilterSink struct {
	Allow map[string]bool
	Dest  Sink
}

// Emit implements Sink.
func (f *FilterSink) Emit(ev *Event) error {
	if len(f.Allow) > 0 && !f.Allow[ev.Name] {
		return nil
	}
	return f.Dest.Emit(ev)
}

// FilterSource wraps a Source, yielding only events whose name is in the
// allow set (nil or empty allows everything) — the reader-side counterpart
// of FilterSink for analyzing a subset of a stored trace.
type FilterSource struct {
	Allow map[string]bool
	Src   Source
}

// Next implements Source.
func (f *FilterSource) Next() (Event, bool, error) {
	for {
		ev, ok, err := f.Src.Next()
		if err != nil || !ok {
			return ev, ok, err
		}
		if len(f.Allow) == 0 || f.Allow[ev.Name] {
			return ev, true, nil
		}
	}
}

// DiscardSink drops every event; useful for benchmarking raw simulation
// speed without trace overhead.
type DiscardSink struct{}

// Emit implements Sink.
func (DiscardSink) Emit(*Event) error { return nil }

// CountingSink counts events per name without retaining them.
type CountingSink struct {
	Counts map[string]uint64
}

// Emit implements Sink.
func (c *CountingSink) Emit(ev *Event) error {
	if c.Counts == nil {
		c.Counts = make(map[string]uint64)
	}
	c.Counts[ev.Name]++
	return nil
}
