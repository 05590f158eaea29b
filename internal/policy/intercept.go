package policy

import (
	"nepdvs/internal/power"
	"nepdvs/internal/sim"
)

// Tap observes and may distort the policy-facing chip surface. It is the
// policy layer's fault-injection hook: a tap can corrupt what the traffic
// sensor reports and refuse transitions (a stuck regulator), without the
// policies knowing they are being lied to — exactly the failure model a
// robustness analysis needs. Satisfied by *fault.SensorTap.
type Tap interface {
	// TrafficBits maps the chip's real cumulative traffic counter to what
	// the monitor reads. Implementations distort per-reading deltas, not
	// the cumulative value, so a fault window affects exactly the monitor
	// windows it covers.
	TrafficBits(real uint64) uint64
	// TransitionAllowed reports whether a transition may proceed now; me
	// is the target microengine, or -1 for a chip-wide transition.
	TransitionAllowed(me int) bool
}

// Intercept wraps a chip so every policy built on the result sees the
// fault tap's view: traffic readings pass through Tap.TrafficBits, and
// both VF transitions and DPM sleep transitions are silently dropped when
// Tap.TransitionAllowed refuses — a stuck regulator blocks the sleep
// actuator the same way it blocks the ladder. Idle-time and queue
// occupancy readings pass through unchanged: both are per-ME/chip hardware
// state, not separately faultable monitors in our model.
func Intercept(c Chip, t Tap) Chip { return &tappedChip{chip: c, tap: t} }

type tappedChip struct {
	chip Chip
	tap  Tap
}

func (x *tappedChip) NumMEs() int                          { return x.chip.NumMEs() }
func (x *tappedChip) MEIdle(i int) sim.Time                { return x.chip.MEIdle(i) }
func (x *tappedChip) TrafficBits() uint64                  { return x.tap.TrafficBits(x.chip.TrafficBits()) }
func (x *tappedChip) QueueOccupancy() (used, capacity int) { return x.chip.QueueOccupancy() }

func (x *tappedChip) SetMEVF(i int, vf power.VF) {
	if x.tap.TransitionAllowed(i) {
		x.chip.SetMEVF(i, vf)
	}
}

func (x *tappedChip) SetAllVF(vf power.VF) {
	if x.tap.TransitionAllowed(-1) {
		x.chip.SetAllVF(vf)
	}
}

func (x *tappedChip) SetMESleep(i, depth int) {
	if x.tap.TransitionAllowed(i) {
		x.chip.SetMESleep(i, depth)
	}
}
