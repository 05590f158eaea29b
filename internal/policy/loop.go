package policy

import (
	"fmt"

	"nepdvs/internal/obs"
	"nepdvs/internal/sim"
	"nepdvs/internal/span"
)

// The window loop is the one controller every policy runs on. Each
// monitor window it reads the sensors, counts time at the current levels,
// asks the policy's decide step for the next levels, and then, unit by
// unit in ME order, records the level counter and any "transition"
// instant on the dvs timeline track, updates the statistics and drives
// the actuator. Everything it records derives from simulation state, so
// stats and span streams are deterministic per config.

// track is the policies' shared timeline track.
const track = "dvs"

// sleepDepths is the number of DPM states a MESleep policy moves between:
// awake, sleep and deep sleep.
const sleepDepths = 3

// Actuator selects what a policy's levels drive.
type Actuator int

const (
	// ChipVF drives one chip-wide ladder level through SetAllVF.
	ChipVF Actuator = iota
	// MEVF drives one ladder level per ME through SetMEVF.
	MEVF
	// MESleep drives one DPM depth per ME through SetMESleep.
	MESleep
)

// Window is one monitor window's readings, as a decide step sees them.
type Window struct {
	// At is the window boundary.
	At sim.Time
	// Mbps is the traffic volume over the window, read from the traffic
	// sensor only when the policy's Spec asks for it (zero otherwise).
	Mbps float64
	// Idle is each ME's idle fraction of the window.
	Idle []float64
	// QueueUsed and QueueCap are the receive-FIFO fill and capacity.
	QueueUsed, QueueCap int

	spans *span.Recorder
}

// Sample records a per-window input series on the dvs track when the run
// keeps a timeline. A decide step samples before the loop records levels.
func (w *Window) Sample(name string, v float64) {
	if w.spans != nil {
		w.spans.Counter(track, name, w.At, v)
	}
}

// Spec is what a factory builds: the policy's decide step and the shape of
// the loop around it.
type Spec struct {
	// Drive is the actuator; ChipVF policies have one level, the others
	// one per ME.
	Drive Actuator
	// Ladder supplies the VF rungs for ChipVF and MEVF.
	Ladder Ladder
	// Traffic makes the loop read the traffic sensor into Window.Mbps.
	// It is the only sensor read with side effects (a fault tap advances
	// on every read), so only policies that use it set it.
	Traffic bool
	// Series names the level counter: Series itself for ChipVF,
	// Series_me<i> per ME otherwise.
	Series string
	// Decide is the decision law. next arrives as a copy of cur, the
	// levels in force; Decide overwrites the entries it changes. Private
	// state lives in the closure.
	Decide func(w *Window, cur, next []int)
}

// Stats aggregates a policy's activity for reporting and tests.
type Stats struct {
	Windows     uint64
	Transitions uint64
	// TimeAtLevel accumulates windows spent at each level (counted before
	// the decision: once per window for a chip-wide policy, once per ME
	// for a per-ME one).
	TimeAtLevel []uint64
}

// Publish exports policy statistics under the given prefix (e.g. "dvs"):
// monitor windows evaluated, transitions commanded, and the window count
// spent at each level — the policy-side view of where the chip's time (and
// therefore energy) went.
func (s Stats) Publish(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + "_windows").Add(s.Windows)
	reg.Counter(prefix + "_transitions").Add(s.Transitions)
	for level, n := range s.TimeAtLevel {
		reg.Counter(fmt.Sprintf("%s_windows_at_level%d", prefix, level)).Add(n)
	}
}

// Loop is a policy attached to a run's kernel; it ticks itself every
// window until the run ends.
type Loop struct {
	spec   Spec
	chip   Chip
	spans  *span.Recorder
	window sim.Time

	win      Window
	lastBits uint64
	lastIdle []sim.Time
	cur      []int
	next     []int
	series   []string // level counter name per unit
	stats    Stats
}

// Start builds f's policy for e and attaches its window loop to e.Kernel.
// Every factory declares a window_cycles parameter: the loop period in
// reference-clock cycles.
func (f *Factory) Start(e Env) (*Loop, error) {
	spec, err := f.New(e)
	if err != nil {
		return nil, err
	}
	window := windowOf(f, e)
	if window <= 0 {
		return nil, fmt.Errorf("policy: %s: empty window", f.Name)
	}
	n := e.Chip.NumMEs()
	units, levels := n, spec.Ladder.Levels()
	switch spec.Drive {
	case ChipVF:
		units = 1
	case MESleep:
		levels = sleepDepths
	}
	l := &Loop{
		spec: spec, chip: e.Chip, spans: e.Spans, window: window,
		win:      Window{Idle: make([]float64, n), spans: e.Spans},
		lastIdle: make([]sim.Time, n),
		cur:      make([]int, units),
		next:     make([]int, units),
		stats:    Stats{TimeAtLevel: make([]uint64, levels)},
	}
	if e.Spans != nil {
		// Counter names must be globally unique, and ticks should not
		// format strings.
		l.series = []string{spec.Series}
		if spec.Drive != ChipVF {
			l.series = make([]string, units)
			for i := range l.series {
				l.series[i] = fmt.Sprintf("%s_me%d", spec.Series, i)
			}
		}
	}
	sim.NewTicker(e.Kernel, window, l.tick)
	return l, nil
}

// windowOf is f's loop period for e.
func windowOf(f *Factory, e Env) sim.Time {
	return sim.NewClock(e.RefMHz).Cycles(int64(f.Param(e.Params, "window_cycles")))
}

// Stats returns the policy's statistics so far.
func (l *Loop) Stats() Stats { return l.stats }

func (l *Loop) tick(at sim.Time) {
	w := &l.win
	w.At = at
	if l.spec.Traffic {
		bits := l.chip.TrafficBits()
		w.Mbps = float64(bits-l.lastBits) / l.window.Seconds() / 1e6
		l.lastBits = bits
	}
	for i := range w.Idle {
		idle := l.chip.MEIdle(i)
		w.Idle[i] = float64(idle-l.lastIdle[i]) / float64(l.window)
		l.lastIdle[i] = idle
	}
	w.QueueUsed, w.QueueCap = l.chip.QueueOccupancy()

	l.stats.Windows++
	for _, level := range l.cur {
		l.stats.TimeAtLevel[level]++
	}
	copy(l.next, l.cur)
	l.spec.Decide(w, l.cur, l.next)

	for i, to := range l.next {
		from := l.cur[i]
		me := i
		if l.spec.Drive == ChipVF {
			me = -1
		}
		if l.spans != nil {
			l.spans.Counter(track, l.series[i], at, float64(to))
			if to != from {
				l.spans.Instant(track, "transition", "dvs", at, map[string]float64{
					"me": float64(me), "from": float64(from), "to": float64(to),
				})
			}
		}
		if to == from {
			continue
		}
		l.cur[i] = to
		l.stats.Transitions++
		switch l.spec.Drive {
		case ChipVF:
			l.chip.SetAllVF(l.spec.Ladder.Steps[to].VF)
		case MEVF:
			l.chip.SetMEVF(i, l.spec.Ladder.Steps[to].VF)
		case MESleep:
			l.chip.SetMESleep(i, to)
		}
	}
}
