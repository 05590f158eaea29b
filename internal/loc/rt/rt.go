// Package rt is the LOC checker runtime: the streaming evaluator of one
// compiled formula, its violation witnesses and report, and the text-trace
// line parser. The in-process runner (package loc) drives one Checker per
// formula; locgen embeds this very file, package clause rewritten, into every
// generated checker. It therefore imports only the standard library.
package rt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Event is one trace record. Its layout matches trace.Event field for
// field, so the in-process runner converts a *trace.Event to an *Event
// without copying.
type Event struct {
	Name     string
	Cycle    uint64
	Time     float64 // microseconds
	Energy   float64 // microjoules
	TotalPkt uint64
	TotalBit uint64
	Extra    map[string]float64
}

// Annotation returns the named annotation value; ok is false when the event
// does not carry it.
func (e *Event) Annotation(name string) (v float64, ok bool) {
	switch name {
	case "cycle":
		return float64(e.Cycle), true
	case "time":
		return e.Time, true
	case "energy":
		return e.Energy, true
	case "total_pkt":
		return float64(e.TotalPkt), true
	case "total_bit":
		return float64(e.TotalBit), true
	}
	v, ok = e.Extra[name]
	return v, ok
}

// The stack VM. A compiled expression is a flat instruction sequence
// operating on a float64 stack.

// OpCode is a VM instruction opcode.
type OpCode uint8

// VM opcodes. OpRef pushes the value of reference slot Arg (filled by the
// checker per instance); OpIndex pushes the current instance index.
const (
	OpConst OpCode = iota // push Val
	OpRef                 // push refs[Arg]
	OpIndex               // push float64(i)
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpNeg
	OpAbs
	OpMin
	OpMax
)

var opNames = [...]string{
	OpConst: "const", OpRef: "ref", OpIndex: "index",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpNeg: "neg",
	OpAbs: "abs", OpMin: "min", OpMax: "max",
}

func (o OpCode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OpCode(%d)", int(o))
}

// Instr is one VM instruction.
type Instr struct {
	Op  OpCode
	Arg int     // slot index for OpRef
	Val float64 // literal for OpConst
}

// Program is a compiled expression: a straight-line instruction sequence
// leaving exactly one value on the stack.
type Program struct {
	Code     []Instr
	MaxStack int
}

// Disasm renders the program for debugging.
func (p *Program) Disasm() string {
	var b strings.Builder
	for k, in := range p.Code {
		switch in.Op {
		case OpConst:
			fmt.Fprintf(&b, "%3d  const %g\n", k, in.Val)
		case OpRef:
			fmt.Fprintf(&b, "%3d  ref   #%d\n", k, in.Arg)
		default:
			fmt.Fprintf(&b, "%3d  %s\n", k, in.Op)
		}
	}
	return b.String()
}

// Eval executes the program. refs[k] must hold the current value of
// reference slot k; i is the instance index. The stack slice is scratch
// space (grown as needed) so hot evaluation loops do not allocate.
func (p *Program) Eval(refs []float64, i int64, stack []float64) (float64, []float64) {
	if cap(stack) < p.MaxStack {
		stack = make([]float64, 0, p.MaxStack)
	}
	stack = stack[:0]
	for _, in := range p.Code {
		switch in.Op {
		case OpConst:
			stack = append(stack, in.Val)
		case OpRef:
			stack = append(stack, refs[in.Arg])
		case OpIndex:
			stack = append(stack, float64(i))
		case OpNeg:
			stack[len(stack)-1] = -stack[len(stack)-1]
		case OpAbs:
			if v := stack[len(stack)-1]; v < 0 {
				stack[len(stack)-1] = -v
			}
		default:
			r := stack[len(stack)-1]
			l := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			switch in.Op {
			case OpAdd:
				stack[len(stack)-1] = l + r
			case OpSub:
				stack[len(stack)-1] = l - r
			case OpMul:
				stack[len(stack)-1] = l * r
			case OpDiv:
				stack[len(stack)-1] = l / r
			case OpMin:
				if r < l {
					stack[len(stack)-1] = r
				}
			case OpMax:
				if r > l {
					stack[len(stack)-1] = r
				}
			}
		}
	}
	return stack[0], stack
}

// RelOp is a relational operator for checker formulas.
type RelOp int

// Relational operators.
const (
	OpLE RelOp = iota
	OpLT
	OpGE
	OpGT
	OpEQ
	OpNE
)

var relNames = [...]string{OpLE: "<=", OpLT: "<", OpGE: ">=", OpGT: ">", OpEQ: "==", OpNE: "!="}

func (r RelOp) String() string {
	if r >= 0 && int(r) < len(relNames) {
		return relNames[r]
	}
	return ""
}

// Holds evaluates the operator on concrete values.
func (r RelOp) Holds(l, rv float64) bool {
	switch r {
	case OpLE:
		return l <= rv
	case OpLT:
		return l < rv
	case OpGE:
		return l >= rv
	case OpGT:
		return l > rv
	case OpEQ:
		return l == rv
	case OpNE:
		return l != rv
	}
	return false
}

// deviation measures how badly a violation misses its relation: the margin
// by which the comparison failed. Larger is worse; equality relations fall
// back to the magnitude gap (zero for !=, where every violation is equally
// wrong and the earliest wins).
func deviation(rel RelOp, lhs, rhs float64) float64 {
	switch rel {
	case OpLE, OpLT:
		return lhs - rhs
	case OpGE, OpGT:
		return rhs - lhs
	}
	return math.Abs(lhs - rhs)
}

// Slot is one reference slot of a compiled formula: a distinct
// annotation(event[index]) term. Rel slots index relative to the instance
// (event[i+Off]); the others pin instance Off.
type Slot struct {
	Src   string // source form, e.g. "cycle(deq[i-1])"
	Ann   string
	Event string
	Rel   bool
	Off   int64
}

// Formula is one compiled formula: everything a Checker needs to evaluate it
// over a trace.
type Formula struct {
	Name string
	Src  string // canonical source text
	Dist bool   // a distribution formula: LHS values feed a DistSink
	Rel  RelOp  // check formulas only
	LHS  Program
	RHS  Program // check formulas only
	// Slots in first-appearance order; OpRef k reads Slots[k].
	Slots []Slot
	// Retention is the statically inferred history bound per event
	// (instances). It seeds ring capacities; exceeding it is not an error.
	Retention map[string]int64
}

// Options bounds a Checker's resources.
type Options struct {
	// MaxViolations bounds the retained violation list (the total is always
	// counted). Zero means the default of 100.
	MaxViolations int
	// MaxWindow bounds the per-event history a formula may force the checker
	// to retain. A formula such as cycle(a[i]) - cycle(b[i]) <= 5 over a
	// trace where a outruns b needs unbounded memory; the checker fails
	// cleanly at this limit instead of exhausting memory. Zero means the
	// default of 1<<22 instances.
	MaxWindow int64
}

func (o Options) maxViolations() int {
	if o.MaxViolations <= 0 {
		return 100
	}
	return o.MaxViolations
}

func (o Options) maxWindow() int64 {
	if o.MaxWindow <= 0 {
		return 1 << 22
	}
	return o.MaxWindow
}

// ringPrealloc caps the up-front ring allocation (in instances). Formulas
// with an exact retention bound at or below it never reallocate; larger or
// inexact windows start here and double on demand.
const ringPrealloc = 1 << 16

// ring is a FIFO of per-instance reference-value vectors for one event,
// indexed by absolute instance number. Vectors are stored flat — stride
// float64s per instance — so the steady-state evaluation loop performs no
// per-event allocation, and the capacity is seeded from the statically
// inferred retention bound so typical checkers allocate exactly once.
type ring struct {
	base   int64 // instance number of the slot at head
	head   int
	count  int
	stride int
	data   []float64
}

func newRing(stride int, bound int64) ring {
	n := min(bound, ringPrealloc)
	if n < 1 {
		n = 1
	}
	return ring{stride: stride, data: make([]float64, int(n)*stride)}
}

func (r *ring) cap() int { return len(r.data) / r.stride }

// pushSlot appends the next instance and returns its value slot for the
// caller to fill in place.
func (r *ring) pushSlot() []float64 {
	if r.count == r.cap() {
		grown := make([]float64, max(4, 2*r.cap())*r.stride)
		for k := 0; k < r.count; k++ {
			src := (r.head + k) % r.cap()
			copy(grown[k*r.stride:(k+1)*r.stride], r.data[src*r.stride:(src+1)*r.stride])
		}
		r.data, r.head = grown, 0
	}
	k := (r.head + r.count) % r.cap()
	r.count++
	return r.data[k*r.stride : (k+1)*r.stride]
}

// get returns the value vector for absolute instance n, which must be
// retained.
func (r *ring) get(n int64) []float64 {
	k := (r.head + int(n-r.base)) % r.cap()
	return r.data[k*r.stride : (k+1)*r.stride]
}

// trimBelow drops instances < n.
func (r *ring) trimBelow(n int64) {
	d := n - r.base
	if d <= 0 {
		return
	}
	if d >= int64(r.count) {
		r.head, r.count, r.base = 0, 0, n
		return
	}
	r.head = (r.head + int(d)) % r.cap()
	r.count -= int(d)
	r.base = n
}

// eventState tracks one event a formula references.
type eventState struct {
	name string
	// relative refs: global slot, annotation and offset of each; minOff is
	// the smallest offset, valid when hasRel.
	relSlots []int
	relAnns  []string
	relOffs  []int64
	minOff   int64
	hasRel   bool
	// absolute refs: slot, annotation, pinned instance, captured value and
	// the trace coordinates of the pinned event, for witness provenance.
	absSlots []int
	absAnns  []string
	absIdx   []int64
	absVals  []float64
	absSeen  []bool
	absTime  []float64
	absCycle []float64

	count int64 // instances of this event seen so far
	ring  ring
}

// slotBinding locates one global reference slot inside its event state: k
// indexes relSlots/relAnns/relOffs when rel, absSlots/absVals otherwise.
// Witness construction walks this slice (slot order) so provenance never
// depends on event order.
type slotBinding struct {
	es  *eventState
	k   int
	rel bool
}

// DistSink receives the value of every evaluated instance of a distribution
// formula; *stats.Histogram is one.
type DistSink interface{ Add(v float64) }

// Checker evaluates one formula over a stream of events in O(window)
// memory: it buffers the referenced annotations of each event, evaluates
// every instance as soon as all its references have arrived, and drops the
// history no later instance can reference.
type Checker struct {
	f       *Formula
	opts    Options
	events  []*eventState // in first-reference order
	slots   []slotBinding // indexed by global ref slot
	next    int64         // next instance index to evaluate
	refVals []float64
	stack   []float64
	err     error
	// single marks a formula with no relative references: all its indices
	// are pinned, so it describes exactly one instance. done records that
	// the instance was handled, ending the stream (without it the drain
	// loop would spin forever — nothing ever makes the next instance
	// un-ready).
	single   bool
	done     bool
	worstDev float64

	// Result is the outcome so far. Distribution formulas use only
	// Instances and Skipped; their values go to Dist.
	Result CheckResult
	// WindowPeak is the high-water mark of retained event history (ring
	// instances) the formula forced the checker to hold.
	WindowPeak int64
	// Dist receives every instance value of a distribution formula; it must
	// be set before the first Emit.
	Dist DistSink
	// OnRetain, when set, is called for every retained violation with the
	// earliest trace time its references bound (v.Time is the latest).
	OnRetain func(v Violation, minT float64)
}

// NewChecker prepares a checker for f.
func NewChecker(f *Formula, opts Options) *Checker {
	c := &Checker{f: f, opts: opts, refVals: make([]float64, len(f.Slots)), single: true}
	c.slots = make([]slotBinding, len(f.Slots))
	for slot, s := range f.Slots {
		var es *eventState
		for _, e := range c.events {
			if e.name == s.Event {
				es = e
			}
		}
		if es == nil {
			es = &eventState{name: s.Event}
			c.events = append(c.events, es)
		}
		if s.Rel {
			c.single = false
			if !es.hasRel || s.Off < es.minOff {
				es.minOff = s.Off
			}
			es.hasRel = true
			c.slots[slot] = slotBinding{es: es, k: len(es.relSlots), rel: true}
			es.relSlots = append(es.relSlots, slot)
			es.relAnns = append(es.relAnns, s.Ann)
			es.relOffs = append(es.relOffs, s.Off)
		} else {
			c.slots[slot] = slotBinding{es: es, k: len(es.absSlots)}
			es.absSlots = append(es.absSlots, slot)
			es.absAnns = append(es.absAnns, s.Ann)
			es.absIdx = append(es.absIdx, s.Off)
			es.absVals = append(es.absVals, 0)
			es.absSeen = append(es.absSeen, false)
			es.absTime = append(es.absTime, 0)
			es.absCycle = append(es.absCycle, 0)
		}
	}
	// Seed each ring at its statically inferred retention bound (capped by
	// ringPrealloc and the window limit): exact bounds make the ring a
	// single, final allocation. The two extra stride slots carry event time
	// and cycle for witness provenance.
	for _, es := range c.events {
		if es.hasRel {
			es.ring = newRing(len(es.relSlots)+2, min(f.Retention[es.name], opts.maxWindow()))
		}
	}
	return c
}

// Events returns the referenced event names; Emit takes an index into it.
func (c *Checker) Events() []string {
	out := make([]string, len(c.events))
	for k, es := range c.events {
		out[k] = es.name
	}
	return out
}

// Err returns the runtime error (missing annotation, window overflow) that
// stopped the checker, if any.
func (c *Checker) Err() error { return c.err }

// Emit feeds the next instance of event Events()[k] and evaluates every
// instance that became ready. After the first error the checker ignores
// further events; Err keeps reporting it.
func (c *Checker) Emit(k int, ev *Event) error {
	if c.err != nil {
		return nil
	}
	c.err = c.onEvent(c.events[k], ev)
	return c.err
}

func (c *Checker) onEvent(es *eventState, ev *Event) error {
	n := es.count
	es.count++
	for k, idx := range es.absIdx {
		if idx == n && !es.absSeen[k] {
			v, ok := ev.Annotation(es.absAnns[k])
			if !ok {
				return c.missing(ev, n, es.absAnns[k])
			}
			es.absVals[k] = v
			es.absSeen[k] = true
			es.absTime[k] = ev.Time
			es.absCycle[k] = float64(ev.Cycle)
		}
	}
	// Capture relative refs into the ring, filling the flat slot in place.
	// The two extra trailing entries carry the event's time and cycle so
	// retained violations can reconstruct full witness provenance.
	if es.hasRel {
		// Trim on arrival, not just after evaluation: instances below
		// next+minOff can never be referenced again, and dropping them here
		// keeps retention within the statically inferred bound even while
		// the evaluation loop is stalled (e.g. waiting on a pinned index).
		// The floor is clamped to this event's arriving instance — the ring
		// equates position with instance number, so trimming past the last
		// push would mislabel everything pushed after.
		es.ring.trimBelow(min(c.next+es.minOff, n))
		if int64(es.ring.count) >= c.opts.maxWindow() {
			return fmt.Errorf("loc: formula %s: event %q history exceeds %d instances; "+
				"the formula requires unbounded memory on this trace", c.f.Name, ev.Name, c.opts.maxWindow())
		}
		vals := es.ring.pushSlot()
		for k, ann := range es.relAnns {
			v, ok := ev.Annotation(ann)
			if !ok {
				return c.missing(ev, n, ann)
			}
			vals[k] = v
		}
		vals[len(es.relSlots)] = ev.Time
		vals[len(es.relSlots)+1] = float64(ev.Cycle)
		if p := int64(es.ring.count); p > c.WindowPeak {
			c.WindowPeak = p
		}
	}
	c.drain()
	return nil
}

func (c *Checker) missing(ev *Event, n int64, ann string) error {
	return fmt.Errorf("loc: formula %s: event %q instance %d has no annotation %q", c.f.Name, ev.Name, n, ann)
}

// drain evaluates every instance that has become evaluable.
func (c *Checker) drain() {
	for {
		ok, skip := c.ready(c.next)
		if !ok {
			return
		}
		if skip {
			c.Result.Skipped++
		} else {
			c.gather(c.next)
			c.evalInstance(c.next)
		}
		c.next++
		for _, es := range c.events {
			if es.hasRel {
				es.ring.trimBelow(c.next + es.minOff)
			}
		}
		c.done = c.single
	}
}

// ready reports whether instance i can be evaluated now; skip means the
// instance is vacuous (some relative index is negative).
func (c *Checker) ready(i int64) (ok, skip bool) {
	if c.done {
		return false, false
	}
	for _, es := range c.events {
		for _, seen := range es.absSeen {
			if !seen {
				return false, false
			}
		}
		for _, off := range es.relOffs {
			idx := i + off
			if idx < 0 {
				skip = true
				continue
			}
			if idx >= es.count {
				return false, false
			}
		}
	}
	return true, skip
}

func (c *Checker) gather(i int64) {
	for _, es := range c.events {
		for k, slot := range es.absSlots {
			c.refVals[slot] = es.absVals[k]
		}
		for k, slot := range es.relSlots {
			c.refVals[slot] = es.ring.get(i + es.relOffs[k])[k]
		}
	}
}

func (c *Checker) evalInstance(i int64) {
	var lhs float64
	lhs, c.stack = c.f.LHS.Eval(c.refVals, i, c.stack)
	c.Result.Instances++
	if c.f.Dist {
		c.Dist.Add(lhs)
		return
	}
	var rhs float64
	rhs, c.stack = c.f.RHS.Eval(c.refVals, i, c.stack)
	if lhs != lhs || rhs != rhs { // NaN
		c.Result.Indeterminate++
		return
	}
	if !c.f.Rel.Holds(lhs, rhs) {
		c.violation(i, lhs, rhs)
	}
}

// violation records a failing instance: every violation feeds the total and
// the time-density series; retained ones (and any new worst) additionally
// capture full witness provenance.
func (c *Checker) violation(i int64, lhs, rhs float64) {
	ch := &c.Result
	ch.Total++
	minT, maxT := c.witnessWindow(i)
	if ch.Density == nil {
		ch.Density = &Density{}
	}
	ch.Density.Add(maxT)
	dev := deviation(c.f.Rel, lhs, rhs)
	retain := len(ch.Violations) < c.opts.maxViolations()
	worse := ch.Worst == nil || dev > c.worstDev
	if !retain && !worse {
		return
	}
	v := Violation{Instance: i, LHS: lhs, RHS: rhs, Time: maxT, Witness: c.witness(i)}
	if retain {
		ch.Violations = append(ch.Violations, v)
		if c.OnRetain != nil {
			c.OnRetain(v, minT)
		}
	}
	if worse {
		wv := v
		ch.Worst = &wv
		c.worstDev = dev
	}
}

// witnessWindow returns the earliest and latest trace times (µs) bound by
// instance i's references, without allocating.
func (c *Checker) witnessWindow(i int64) (minT, maxT float64) {
	for n, sb := range c.slots {
		var t float64
		if sb.rel {
			t = sb.es.ring.get(i + sb.es.relOffs[sb.k])[len(sb.es.relSlots)]
		} else {
			t = sb.es.absTime[sb.k]
		}
		if n == 0 || t < minT {
			minT = t
		}
		if n == 0 || t > maxT {
			maxT = t
		}
	}
	return minT, maxT
}

// witness reconstructs the provenance of instance i: one Binding per
// reference slot, in slot order.
func (c *Checker) witness(i int64) []Binding {
	w := make([]Binding, len(c.slots))
	for slot, sb := range c.slots {
		s := c.f.Slots[slot]
		b := Binding{Ref: s.Src, Event: s.Event, Ann: s.Ann}
		if sb.rel {
			idx := i + sb.es.relOffs[sb.k]
			vals := sb.es.ring.get(idx)
			n := len(sb.es.relSlots)
			b.Index, b.Value, b.Time, b.Cycle = idx, vals[sb.k], vals[n], vals[n+1]
		} else {
			b.Index, b.Value = sb.es.absIdx[sb.k], sb.es.absVals[sb.k]
			b.Time, b.Cycle = sb.es.absTime[sb.k], sb.es.absCycle[sb.k]
		}
		w[slot] = b
	}
	return w
}

// Binding is one reference slot's provenance for a particular formula
// instance: which event instance bound the value, and the trace coordinates
// (cycle, time) of that event. A violation's witness is one Binding per
// reference slot, in slot (first-appearance) order.
type Binding struct {
	Ref   string  `json:"ref"`   // source form, e.g. "cycle(deq[i-1])"
	Event string  `json:"event"` // event name
	Ann   string  `json:"ann"`   // annotation name
	Index int64   `json:"index"` // resolved instance number of Event
	Value float64 `json:"value"` // the annotation value that entered the evaluation
	Cycle float64 `json:"cycle"` // trace cycle of the bound event
	Time  float64 `json:"time"`  // trace time of the bound event (µs)
}

func (b Binding) String() string {
	return fmt.Sprintf("%s = %g (%s[%d] cycle=%g t=%gus)", b.Ref, b.Value, b.Event, b.Index, b.Cycle, b.Time)
}

// Violation records one failing instance of a checker formula, with the
// witness that explains it.
type Violation struct {
	Instance int64   `json:"i"`
	LHS      float64 `json:"lhs"`
	RHS      float64 `json:"rhs"`
	// Time is the simulation time (µs) at which the instance became
	// checkable: the latest trace event its references bound.
	Time float64 `json:"time"`
	// Witness holds one binding per reference slot (nil when provenance was
	// not captured, e.g. for violations past the retention cap).
	Witness []Binding `json:"witness,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("i=%d: lhs=%g rhs=%g", v.Instance, v.LHS, v.RHS)
}

// DensityBins bounds the Density bin count; the bin width doubles (folding
// adjacent bins) whenever a violation lands past the last slot.
const DensityBins = 64

// Density is a constant-memory violation-count series over simulation time:
// Counts[k] covers [k·WidthUS, (k+1)·WidthUS) microseconds from t = 0. It
// starts with 1 µs bins and doubles the width as needed, so its layout is a
// pure function of the violation times.
type Density struct {
	WidthUS float64 `json:"width_us"`
	Counts  []int64 `json:"counts"`
}

// Add records one violation at time t (µs). Non-finite or negative times
// clamp to bin zero so adversarial annotation values cannot force unbounded
// growth.
func (d *Density) Add(t float64) {
	if d.WidthUS == 0 {
		d.WidthUS = 1
	}
	if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		t = 0
	}
	for t >= d.WidthUS*DensityBins {
		folded := make([]int64, (len(d.Counts)+1)/2)
		for k, c := range d.Counts {
			folded[k/2] += c
		}
		d.Counts = folded
		d.WidthUS *= 2
	}
	k := int(t / d.WidthUS)
	for len(d.Counts) <= k {
		d.Counts = append(d.Counts, 0)
	}
	d.Counts[k]++
}

// Total returns the number of recorded violations.
func (d *Density) Total() int64 {
	var n int64
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// CheckResult is the outcome of running a checker formula over a trace.
type CheckResult struct {
	Instances     int64 // instances evaluated
	Skipped       int64 // instances skipped because an index was negative
	Indeterminate int64 // instances where a NaN reached the comparison
	Total         int64 // total violations
	Violations    []Violation
	// Worst is the violation with the largest margin by which the relation
	// failed, tracked across every violation — including those past the
	// retention cap. Ties keep the earliest.
	Worst *Violation `json:"worst,omitempty"`
	// Density bins every violation (retained or not) by its sim time.
	Density *Density `json:"density,omitempty"`
}

// Passed reports whether the assertion held on every evaluated instance.
func (c *CheckResult) Passed() bool { return c.Total == 0 && c.Indeterminate == 0 }

// String renders the verdict line, up to ten retained violations with their
// witness bindings, and an exact remainder count. Total counts every
// violation even when MaxViolations capped retention, so the remainder line
// covers both the display truncation and the retention cap.
func (c *CheckResult) String() string {
	var b strings.Builder
	status := "PASSED"
	if !c.Passed() {
		status = "FAILED"
	}
	fmt.Fprintf(&b, "  %s: %d instances evaluated, %d violations, %d indeterminate, %d skipped\n",
		status, c.Instances, c.Total, c.Indeterminate, c.Skipped)
	shown := min(len(c.Violations), 10)
	for _, v := range c.Violations[:shown] {
		fmt.Fprintf(&b, "  violation %s\n", v)
		for _, bd := range v.Witness {
			fmt.Fprintf(&b, "    %s\n", bd)
		}
	}
	if rest := c.Total - int64(shown); rest > 0 {
		fmt.Fprintf(&b, "  ... %d more violations\n", rest)
	}
	return b.String()
}

// ReportSchema versions the assertion-report JSON layout. Bump it whenever a
// field is added, removed or reinterpreted so consumers can detect mismatch.
// Schema 2 added the Vacuous flag and the static Analysis block.
const ReportSchema = 2

// ReportAnalysis is the static-analysis block of a formula report: why a
// formula could or could not fail, independent of the trace, plus the
// inferred retention requirement. It is a pure function of the formula
// source, so every producer (VM, generated checkers, stored artifacts)
// derives identical bytes.
type ReportAnalysis struct {
	// Verdict is always-true, always-false or unknown for check formulas;
	// omitted for distributions.
	Verdict string `json:"verdict,omitempty"`
	// Retention maps each referenced event to the instances the runner must
	// retain for it; Exact records whether those bounds are tight (single
	// event class) or trace-dependent minimums.
	Retention map[string]int64 `json:"retention,omitempty"`
	Exact     bool             `json:"exact,omitempty"`
}

// FormulaReport is the per-formula section of an assertion report.
type FormulaReport struct {
	Name    string `json:"name"`
	Source  string `json:"src"`
	Kind    string `json:"kind"`    // "check" or "dist"
	Verdict string `json:"verdict"` // "pass", "fail", "indeterminate" or "dist"
	// Vacuous marks a check that passed without evaluating a single
	// instance: nothing was asserted, so "pass" is an empty claim.
	Vacuous bool `json:"vacuous,omitempty"`

	Instances     int64 `json:"instances"`
	Skipped       int64 `json:"skipped"`
	Violations    int64 `json:"violations,omitempty"`
	Indeterminate int64 `json:"indeterminate,omitempty"`
	// Retained is how many violations kept full witnesses (MaxViolations
	// caps retention; Violations counts them all).
	Retained   int   `json:"retained,omitempty"`
	WindowPeak int64 `json:"window_peak,omitempty"`

	First   *Violation `json:"first,omitempty"`
	Worst   *Violation `json:"worst,omitempty"`
	Density *Density   `json:"density,omitempty"`
	// Witnesses is every retained violation with full provenance.
	Witnesses []Violation `json:"witnesses,omitempty"`
	// Analysis is the static-analysis block: the relation verdict over the
	// standard annotation ranges and the inferred retention bounds.
	Analysis *ReportAnalysis `json:"analysis,omitempty"`
}

// Section shapes one formula's outcome into its report section. A
// distribution formula reports only c's Instances and Skipped.
func Section(name, src string, dist bool, c *CheckResult, windowPeak int64, a *ReportAnalysis) FormulaReport {
	fr := FormulaReport{Name: name, Source: src, WindowPeak: windowPeak, Instances: c.Instances, Skipped: c.Skipped, Analysis: a}
	if dist {
		fr.Kind, fr.Verdict = "dist", "dist"
		return fr
	}
	fr.Kind = "check"
	switch {
	case c.Passed():
		fr.Verdict = "pass"
	case c.Total > 0:
		fr.Verdict = "fail"
	default:
		fr.Verdict = "indeterminate"
	}
	fr.Vacuous = c.Passed() && c.Instances == 0
	fr.Violations = c.Total
	fr.Indeterminate = c.Indeterminate
	fr.Retained = len(c.Violations)
	if len(c.Violations) > 0 {
		first := c.Violations[0]
		fr.First = &first
	}
	fr.Worst = c.Worst
	fr.Density = c.Density
	fr.Witnesses = c.Violations
	return fr
}

// Report is the unified assertion report: a deterministic, serializable
// digest of every formula's outcome over one run.
type Report struct {
	Schema   int             `json:"schema"`
	Formulas []FormulaReport `json:"formulas"`
}

// Failed reports whether any check formula failed or was indeterminate.
func (r *Report) Failed() bool {
	for _, fr := range r.Formulas {
		if fr.Verdict == "fail" || fr.Verdict == "indeterminate" {
			return true
		}
	}
	return false
}

// JSON renders the report as indented JSON with a trailing newline. The
// encoding is deterministic: field order follows the struct declarations and
// all values derive from simulation state.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Text renders a human-oriented summary of the report.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "assertion report (schema %d)\n", r.Schema)
	for _, fr := range r.Formulas {
		fmt.Fprintf(&b, "formula %s: %s\n", fr.Name, fr.Source)
		if a := fr.Analysis; a != nil && (a.Verdict != "" || len(a.Retention) > 0) {
			b.WriteString("  analysis:")
			if a.Verdict != "" {
				fmt.Fprintf(&b, " verdict %s;", a.Verdict)
			}
			if len(a.Retention) > 0 {
				events := make([]string, 0, len(a.Retention))
				for ev := range a.Retention {
					events = append(events, ev)
				}
				sort.Strings(events)
				b.WriteString(" retention")
				for _, ev := range events {
					fmt.Fprintf(&b, " %s=%d", ev, a.Retention[ev])
				}
				if a.Exact {
					b.WriteString(" (exact)")
				}
			}
			b.WriteString("\n")
		}
		if fr.Kind == "dist" {
			fmt.Fprintf(&b, "  dist: %d instances analyzed, %d skipped\n", fr.Instances, fr.Skipped)
			continue
		}
		fmt.Fprintf(&b, "  %s: %d instances evaluated, %d violations (%d retained), %d indeterminate, %d skipped",
			strings.ToUpper(fr.Verdict), fr.Instances, fr.Violations, fr.Retained, fr.Indeterminate, fr.Skipped)
		if fr.WindowPeak > 0 {
			fmt.Fprintf(&b, "; window peak %d", fr.WindowPeak)
		}
		if fr.Vacuous {
			b.WriteString("; passed vacuously (no instance was ever evaluated)")
		}
		b.WriteString("\n")
		if fr.First != nil {
			fmt.Fprintf(&b, "  first %s at t=%gus\n", fr.First, fr.First.Time)
			for _, bd := range fr.First.Witness {
				fmt.Fprintf(&b, "    %s\n", bd)
			}
		}
		if fr.Worst != nil && (fr.First == nil || fr.Worst.Instance != fr.First.Instance) {
			fmt.Fprintf(&b, "  worst %s at t=%gus\n", fr.Worst, fr.Worst.Time)
			for _, bd := range fr.Worst.Witness {
				fmt.Fprintf(&b, "    %s\n", bd)
			}
		}
		if d := fr.Density; d != nil && len(d.Counts) > 0 {
			fmt.Fprintf(&b, "  density: %d violations over [0us, %gus) in %gus bins:",
				d.Total(), d.WidthUS*float64(len(d.Counts)), d.WidthUS)
			for _, c := range d.Counts {
				fmt.Fprintf(&b, " %d", c)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TextReader parses the text trace format: one event per line, columns
// cycle time energy total_pkt total_bit event [key=value ...]; blank lines
// and #-comments are skipped. It accepts exactly the lines trace.TextReader
// accepts, with bit-equal values.
type TextReader struct {
	sc   *bufio.Scanner
	line int
	err  error
}

// NewTextReader wraps r.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &TextReader{sc: sc}
}

// Next parses the next event into ev, reusing its Extra map; ok is false at
// the end of the trace.
func (t *TextReader) Next(ev *Event) (ok bool, err error) {
	if t.err != nil {
		return false, t.err
	}
	for t.sc.Scan() {
		t.line++
		line := strings.TrimSpace(t.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := ParseLine(line, ev); err != nil {
			t.err = fmt.Errorf("trace: line %d: %w", t.line, err)
			return false, t.err
		}
		return true, nil
	}
	t.err = t.sc.Err()
	return false, t.err
}

// ParseLine parses one non-comment text-trace line into ev, reusing its
// Extra map.
func ParseLine(line string, ev *Event) error {
	fields := strings.Fields(line)
	if len(fields) < 6 {
		return fmt.Errorf("want at least 6 fields, got %d in %q", len(fields), line)
	}
	var err error
	if ev.Cycle, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return fmt.Errorf("bad cycle %q: %v", fields[0], err)
	}
	if ev.Time, err = strconv.ParseFloat(fields[1], 64); err != nil {
		return fmt.Errorf("bad time %q: %v", fields[1], err)
	}
	if ev.Energy, err = strconv.ParseFloat(fields[2], 64); err != nil {
		return fmt.Errorf("bad energy %q: %v", fields[2], err)
	}
	if ev.TotalPkt, err = strconv.ParseUint(fields[3], 10, 64); err != nil {
		return fmt.Errorf("bad total_pkt %q: %v", fields[3], err)
	}
	if ev.TotalBit, err = strconv.ParseUint(fields[4], 10, 64); err != nil {
		return fmt.Errorf("bad total_bit %q: %v", fields[4], err)
	}
	ev.Name = fields[5]
	clear(ev.Extra)
	for _, f := range fields[6:] {
		k, vs, ok := strings.Cut(f, "=")
		if !ok || k == "" {
			return fmt.Errorf("bad extra annotation %q", f)
		}
		v, err := strconv.ParseFloat(vs, 64)
		if err != nil {
			return fmt.Errorf("bad extra annotation value %q: %v", f, err)
		}
		if ev.Extra == nil {
			ev.Extra = make(map[string]float64, 2)
		}
		ev.Extra[k] = v
	}
	return nil
}

// Table is a standalone analyzer's distribution sink: it bins every value
// and prints the formula's view once the trace is done.
type Table interface {
	DistSink
	Print(instances, skipped int64)
}

// Main runs a generated checker: it parses the arguments [-report PATH]
// [TRACE], streams the text trace (TRACE, or stdin) through a Checker for f
// and prints the verdict — or, for a distribution formula, table's view.
// With -report it also writes the single-formula assertion report, a
// carrying the formula's static analysis. The result is the exit status:
// 0 pass, 1 assertion failure, 2 bad usage or malformed input — a malformed
// trace is never reported as a pass.
func Main(args []string, f *Formula, a *ReportAnalysis, table Table) int {
	code, err := run(args, f, a, table)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return code
}

func run(args []string, f *Formula, a *ReportAnalysis, table Table) (int, error) {
	var tracePath, reportPath string
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "-report":
			i++
			if i >= len(args) {
				return 0, fmt.Errorf("-report needs a path")
			}
			reportPath = args[i]
		case tracePath == "":
			tracePath = args[i]
		default:
			return 0, fmt.Errorf("unexpected argument %q", args[i])
		}
	}
	in := os.Stdin
	if tracePath != "" {
		fh, err := os.Open(tracePath)
		if err != nil {
			return 0, err
		}
		defer fh.Close()
		in = fh
	}
	c := NewChecker(f, Options{})
	if f.Dist {
		c.Dist = table
	}
	index := make(map[string]int)
	for k, name := range c.Events() {
		index[name] = k
	}
	tr := NewTextReader(in)
	var ev Event
	for {
		ok, err := tr.Next(&ev)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		if k, ok := index[ev.Name]; ok {
			if err := c.Emit(k, &ev); err != nil {
				return 0, err
			}
		}
	}
	if reportPath != "" {
		rep := &Report{Schema: ReportSchema, Formulas: []FormulaReport{Section(f.Name, f.Src, f.Dist, &c.Result, c.WindowPeak, a)}}
		b, err := rep.JSON()
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(reportPath, b, 0o644); err != nil {
			return 0, err
		}
	}
	fmt.Printf("formula %s: %s\n", f.Name, f.Src)
	if f.Dist {
		table.Print(c.Result.Instances, c.Result.Skipped)
		return 0, nil
	}
	fmt.Print(c.Result.String())
	if !c.Result.Passed() {
		return 1, nil
	}
	return 0, nil
}
