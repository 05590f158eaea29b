// Package span is the timeline layer of the observability stack: a
// deterministic recorder for simulation-time intervals (ME execution and
// idle residency, memory transactions, DVS stall windows, fault windows)
// and an exporter to the Chrome/Perfetto trace-event JSON format, so a run
// can be inspected visually in ui.perfetto.dev.
//
// Determinism is the package's contract, mirroring internal/obs: every
// recorded value derives from simulation state only, events are appended in
// kernel dispatch order, and the exporter's byte output is a pure function
// of the event slice. Two runs with identical configs and seeds therefore
// produce byte-identical trace.json files — asserted by tests in
// internal/core.
package span

import (
	"nepdvs/internal/sim"
)

// Kind discriminates the three trace-event shapes we export.
type Kind uint8

const (
	// KindSpan is an interval [Start, End) on a track.
	KindSpan Kind = iota
	// KindInstant is a point event at Start.
	KindInstant
	// KindCounter is a sampled value at Start (rendered as a counter
	// series in Perfetto).
	KindCounter
)

// Event is one timeline record. Times are sim.Time (integer picoseconds).
type Event struct {
	Kind Kind
	// Track names the horizontal lane the event renders on ("me0",
	// "me0 vf", "sdram", "dvs", "fault", ...). Tracks are
	// assigned Perfetto thread IDs in first-appearance order.
	Track string
	Name  string
	// Cat is the Perfetto category ("me", "mem", "dvs", "fault").
	Cat   string
	Start sim.Time
	End   sim.Time // spans only; == Start otherwise
	// Value is the counter sample (KindCounter only).
	Value float64
	// Args are optional key/value annotations. Spans with args are never
	// merged.
	Args map[string]float64
}

// Recorder accumulates events for one run. Like the simulation kernel it
// serves, a Recorder is a single-goroutine object: the chip, controllers
// and injector all append from kernel callbacks. It is not safe for
// concurrent use.
//
// Contiguous spans on one track with the same name, category and no args
// are merged (the later span extends the earlier), so an ME executing
// back-to-back batches renders as one "exec" interval rather than
// thousands of slivers.
type Recorder struct {
	events []Event
	// last maps track -> index of the last span on it, for merging.
	last map[string]int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{last: make(map[string]int)}
}

// Span records the interval [start, end) on track. Zero- and
// negative-length spans are dropped.
func (r *Recorder) Span(track, name, cat string, start, end sim.Time, args map[string]float64) {
	if end <= start {
		return
	}
	if args == nil {
		if i, ok := r.last[track]; ok {
			prev := &r.events[i]
			if prev.Name == name && prev.Cat == cat && prev.Args == nil && prev.End == start {
				prev.End = end
				return
			}
		}
	}
	r.last[track] = len(r.events)
	r.events = append(r.events, Event{
		Kind: KindSpan, Track: track, Name: name, Cat: cat,
		Start: start, End: end, Args: args,
	})
}

// Instant records a point event at time at.
func (r *Recorder) Instant(track, name, cat string, at sim.Time, args map[string]float64) {
	r.events = append(r.events, Event{
		Kind: KindInstant, Track: track, Name: name, Cat: cat,
		Start: at, End: at, Args: args,
	})
}

// Counter records a counter sample. name is the Perfetto counter-series
// name and must be globally unique (counters are per-process, not
// per-track).
func (r *Recorder) Counter(track, name string, at sim.Time, v float64) {
	r.events = append(r.events, Event{
		Kind: KindCounter, Track: track, Name: name,
		Start: at, End: at, Value: v,
	})
}

// Events returns the recorded stream in record order. The slice is the
// recorder's own; callers must not append to the recorder afterwards.
func (r *Recorder) Events() []Event { return r.events }
