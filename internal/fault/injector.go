package fault

import (
	"fmt"

	"nepdvs/internal/obs"
	"nepdvs/internal/sim"
	"nepdvs/internal/span"
)

// window is one fault's active interval [from, to) in simulation time.
type window struct {
	from, to  sim.Time
	magnitude float64
	fault     Fault
}

func (w window) covers(at sim.Time) bool { return at >= w.from && at < w.to }

// Stats counts what an injector actually did during a run. Every count
// derives from simulation state only, so stats are deterministic for a
// fixed configuration and plan.
type Stats struct {
	// Armed is the number of faults scheduled for this run (after scope
	// filtering).
	Armed int
	// MemDelayed counts memory requests that paid fault latency;
	// MemExtraPs is the total latency added, in picoseconds.
	MemDelayed uint64
	MemExtraPs uint64
	// PortStalled / PortDropped count packet arrivals deferred or lost.
	PortStalled uint64
	PortDropped uint64
	// SensorMisreads counts distorted traffic-monitor readings.
	SensorMisreads uint64
	// VFBlocked counts DVS transitions refused while stuck.
	VFBlocked uint64
}

// Injector evaluates one run's fault plan against simulation time. Build
// one per run with NewInjector, attach it to the chip hooks, and Arm it on
// the kernel so faults announce themselves in the trace (and the software
// seams fire). Injectors are single-run, single-goroutine objects, like
// the kernel they serve.
type Injector struct {
	plan  Plan
	clock sim.Clock

	mem    map[string][]window // mem_spike windows by unit
	stalls []window            // bank_stall windows (sdram)
	ports  map[int][]window    // port stall/drop windows by port
	sensor []window            // sensor_misread windows
	stuck  []window            // vf_stuck windows

	// spans is the optional timeline recorder; fault windows are recorded
	// at Arm time (their intervals are statically known from the plan).
	spans *span.Recorder

	stats Stats
}

// SetSpans attaches a timeline recorder. Call before Arm; nil (the
// default) disables recording.
func (in *Injector) SetSpans(r *span.Recorder) { in.spans = r }

// NewInjector compiles a (scope-filtered) plan against the reference
// clock. An empty plan yields a valid injector that never fires.
func NewInjector(p Plan, clock sim.Clock) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:  p,
		clock: clock,
		mem:   make(map[string][]window),
		ports: make(map[int][]window),
	}
	for _, f := range p.Faults {
		w := window{
			from:      clock.Cycles(f.OnsetCycle),
			to:        clock.Cycles(f.OnsetCycle + f.DurationCycles),
			magnitude: f.Magnitude,
			fault:     f,
		}
		switch f.Kind {
		case KindMemSpike:
			in.mem[f.Unit] = append(in.mem[f.Unit], w)
		case KindBankStall:
			in.stalls = append(in.stalls, w)
		case KindPortStall, KindPortDrop:
			n, _ := portIndex(f.Unit)
			in.ports[n] = append(in.ports[n], w)
		case KindSensorMisread:
			in.sensor = append(in.sensor, w)
		case KindVFStuck:
			in.stuck = append(in.stuck, w)
		case KindPanic, KindHang:
			// Armed on the kernel, not queried.
		}
	}
	return in, nil
}

// Stats returns what the injector has done so far.
func (in *Injector) Stats() Stats { return in.stats }

// MemExtra reports the extra service latency a memory request beginning at
// time at must pay on the named unit: the sum of active spike magnitudes
// plus, for SDRAM, a hold until the latest active bank-stall window ends.
// It is the npu memory-controller fault hook.
func (in *Injector) MemExtra(unit string, at sim.Time) sim.Time {
	var extra sim.Time
	for _, w := range in.mem[unit] {
		if w.covers(at) {
			extra += sim.Time(w.magnitude * float64(sim.Nanosecond))
		}
	}
	if unit == "sdram" {
		for _, w := range in.stalls {
			if w.covers(at) && w.to-at > extra {
				extra = w.to - at
			}
		}
	}
	if extra > 0 {
		in.stats.MemDelayed++
		in.stats.MemExtraPs += uint64(extra)
	}
	return extra
}

// PortFault reports the fate of a packet arriving on port at time at:
// drop, or deferral until resume (0 = proceed now). It is the npu IX-bus
// fault hook. Drop wins over stall when windows overlap.
func (in *Injector) PortFault(port int, at sim.Time) (resume sim.Time, drop bool) {
	for _, w := range in.ports[port] {
		if !w.covers(at) {
			continue
		}
		if w.fault.Kind == KindPortDrop {
			in.stats.PortDropped++
			return 0, true
		}
		if w.to > resume {
			resume = w.to
		}
	}
	if resume > 0 {
		in.stats.PortStalled++
	}
	return resume, false
}

// Tap binds the injector to a kernel as a DVS-facing sensor/actuator tap
// (it satisfies policy.Tap). The tap maintains its own distorted cumulative
// traffic counter: misreads scale per-reading deltas, never the cumulative
// total, so a fault window distorts exactly the windows it covers.
func (in *Injector) Tap(k *sim.Kernel) *SensorTap {
	return &SensorTap{in: in, k: k}
}

// SensorTap distorts the DVS controller's view of the chip according to
// the injector's sensor and VF fault windows.
type SensorTap struct {
	in       *Injector
	k        *sim.Kernel
	lastReal uint64
	lastOut  uint64
}

// TrafficBits implements policy.Tap: inside a sensor_misread window the
// reading's delta is scaled by the fault magnitude.
func (t *SensorTap) TrafficBits(real uint64) uint64 {
	delta := real - t.lastReal
	t.lastReal = real
	factor := 1.0
	active := false
	for _, w := range t.in.sensor {
		if w.covers(t.k.Now()) {
			factor *= w.magnitude
			active = true
		}
	}
	if active {
		t.in.stats.SensorMisreads++
		delta = uint64(float64(delta) * factor)
	}
	t.lastOut += delta
	return t.lastOut
}

// TransitionAllowed implements policy.Tap: VF transitions are refused inside
// a vf_stuck window.
func (t *SensorTap) TransitionAllowed(me int) bool {
	for _, w := range t.in.stuck {
		if w.covers(t.k.Now()) {
			t.in.stats.VFBlocked++
			return false
		}
	}
	return true
}

// InjectedPanic is the value a KindPanic fault panics with; the engine's
// recovery layer recognizes and records it.
type InjectedPanic struct {
	Fault Fault
	At    sim.Time
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %v (onset cycle %d)", p.At, p.Fault.OnsetCycle)
}

// Arm schedules the plan's trace announcements and software faults on the
// kernel: every fault emits a "fault" event at onset (and "fault_clear" at
// its end, for bounded kinds) through emit, panics panic, and hangs start
// an interruptible livelock. emit may be nil (no trace); it receives the
// event name and the fault's kind/unit/magnitude annotations.
func (in *Injector) Arm(k *sim.Kernel, emit func(name string, extra map[string]float64)) {
	announce := func(name string, f Fault) {
		if emit == nil {
			return
		}
		emit(name, map[string]float64{
			"kind":      f.Kind.Code(),
			"unit":      UnitCode(f.Unit),
			"magnitude": f.Magnitude,
		})
	}
	for _, f := range in.plan.Faults {
		f := f
		in.stats.Armed++
		onset := in.clock.Cycles(f.OnsetCycle)
		args := map[string]float64{
			"kind":      f.Kind.Code(),
			"unit":      UnitCode(f.Unit),
			"magnitude": f.Magnitude,
		}
		switch f.Kind {
		case KindPanic:
			if in.spans != nil {
				in.spans.Instant("fault", string(f.Kind), "fault", onset, args)
			}
			k.Schedule(onset, func() {
				announce("fault", f)
				panic(InjectedPanic{Fault: f, At: k.Now()})
			})
		case KindHang:
			if in.spans != nil {
				in.spans.Instant("fault", string(f.Kind), "fault", onset, args)
			}
			k.Schedule(onset, func() {
				announce("fault", f)
				in.hang(k)
			})
		default:
			end := in.clock.Cycles(f.OnsetCycle + f.DurationCycles)
			if in.spans != nil {
				// The window is known statically, so the span is recorded
				// whole here rather than in two halves at dispatch time.
				in.spans.Span("fault", string(f.Kind), "fault", onset, end, args)
			}
			k.Schedule(onset, func() { announce("fault", f) })
			k.Schedule(end, func() { announce("fault_clear", f) })
		}
	}
}

// hang floods the kernel with self-rescheduling picosecond events: the
// simulation makes no useful progress but the kernel stays interruptible,
// so a watchdog (sim.Kernel.Interrupt) can still abort the run.
func (in *Injector) hang(k *sim.Kernel) {
	var spin func()
	spin = func() { k.After(sim.Picosecond, spin) }
	spin()
}

// PublishMetrics exports the injector's activity counters into a metrics
// registry. All values derive from simulation state only.
func (in *Injector) PublishMetrics(reg *obs.Registry) {
	reg.Counter("fault_armed").Add(uint64(in.stats.Armed))
	reg.Counter("fault_mem_delayed").Add(in.stats.MemDelayed)
	reg.Counter("fault_mem_extra_ps").Add(in.stats.MemExtraPs)
	reg.Counter("fault_port_stalled").Add(in.stats.PortStalled)
	reg.Counter("fault_port_dropped").Add(in.stats.PortDropped)
	reg.Counter("fault_sensor_misreads").Add(in.stats.SensorMisreads)
	reg.Counter("fault_vf_blocked").Add(in.stats.VFBlocked)
}
