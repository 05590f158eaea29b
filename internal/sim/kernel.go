// Package sim provides the discrete-event simulation kernel underlying the
// NPU model. Time is kept in integer picoseconds so that independently
// clocked domains (DVS-scaled microengines, fixed-frequency memory
// controllers and buses) compose without rounding drift.
//
// The kernel is deliberately small: an event queue with deterministic
// tie-breaking, a Clock helper for cycle/time conversion, and a Ticker for
// periodic callbacks. Determinism is a hard requirement — two runs with the
// same configuration and seed must produce byte-identical traces — so events
// scheduled for the same picosecond fire in scheduling order (FIFO), never
// in map or heap-insertion-accident order.
//
// The queue is the simulator's hottest structure, so it allocates nothing
// in steady state: a typed 4-ary min-heap of value entries (time, sequence,
// slot) indexes a free-listed slab that holds the handlers. An EventID is a
// slot plus that slot's generation, so cancelling stays O(log n) and a
// stale ID — its event fired or cancelled, its slot perhaps reused — is a
// harmless no-op.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common time units expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders the timestamp with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Handler is a scheduled callback. It runs exactly once at its due time.
type Handler func()

// entry is one pending event in the queue: its due time, its scheduling
// sequence number (the FIFO tie-break) and the slab slot holding its
// handler. Entries are plain values, so sifting moves 24 bytes and
// allocates nothing.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot is one slab cell. While its event is pending it holds the handler
// and the event's heap position (for O(log n) cancellation); once the event
// fires or is cancelled the cell goes on the free list and its generation
// advances, which invalidates every EventID issued for the old occupant.
type slot struct {
	fn  Handler
	gen uint32
	pos int32
}

// EventID identifies a scheduled event so that it can be cancelled. It is
// a slab slot plus the slot's generation at scheduling time; the zero value
// identifies no event.
type EventID struct {
	slot int32
	gen  uint32
}

// eventHeap is a 4-ary min-heap of entries ordered by (time, sequence) over
// a free-listed slab of handlers. A 4-ary heap is half as deep as a binary
// one, and its four children share a cache line or two, so both sift
// directions touch less memory. It counts its own push, pop and move
// operations: moves measure actual sift work (elements shifted one level
// during a sift), the number a better queue implementation has to reduce,
// where pushes and pops only measure traffic. One uint64 increment per
// operation is noise next to the entry writes the operation already does.
type eventHeap struct {
	h     []entry
	slots []slot
	free  []int32
	// pushes/pops/moves are operation counters for the perf trajectory.
	// All three derive from the (deterministic) event schedule, so they
	// are safe to publish into metrics snapshots.
	pushes, pops, moves uint64
}

// push files fn under (at, seq) and returns its ID.
func (q *eventHeap) push(at Time, seq uint64, fn Handler) EventID {
	var si int32
	if n := len(q.free); n > 0 {
		si = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		si = int32(len(q.slots))
		q.slots = append(q.slots, slot{gen: 1})
	}
	s := &q.slots[si]
	s.fn = fn
	q.pushes++
	q.h = append(q.h, entry{at: at, seq: seq, slot: si})
	q.up(len(q.h) - 1)
	return EventID{slot: si, gen: s.gen}
}

// release returns slot si to the free list and hands back its handler.
// Bumping the generation (skipping 0, which the zero EventID uses) makes
// every outstanding ID for the old occupant stale.
func (q *eventHeap) release(si int32) Handler {
	s := &q.slots[si]
	fn := s.fn
	s.fn = nil
	if s.gen++; s.gen == 0 {
		s.gen = 1
	}
	q.free = append(q.free, si)
	return fn
}

// popMin removes the earliest entry. The heap must not be empty.
func (q *eventHeap) popMin() entry {
	q.pops++
	top := q.h[0]
	n := len(q.h) - 1
	last := q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.h[0] = last
		q.down(0)
	}
	return top
}

// remove deletes the entry at heap position i.
func (q *eventHeap) remove(i int) {
	q.pops++
	n := len(q.h) - 1
	last := q.h[n]
	q.h = q.h[:n]
	if i == n {
		return
	}
	q.h[i] = last
	if !q.down(i) {
		q.up(i)
	}
}

// up sifts the entry at i toward the root.
func (q *eventHeap) up(i int) {
	h := q.h
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		q.slots[h[i].slot].pos = int32(i)
		q.moves++
		i = p
	}
	h[i] = e
	q.slots[e.slot].pos = int32(i)
}

// down sifts the entry at i toward the leaves and reports whether it moved.
func (q *eventHeap) down(i0 int) bool {
	h := q.h
	n := len(h)
	i := i0
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(e) {
			break
		}
		h[i] = h[m]
		q.slots[h[i].slot].pos = int32(i)
		q.moves++
		i = m
	}
	h[i] = e
	q.slots[e.slot].pos = int32(i)
	return i > i0
}

// Kernel is the event queue and simulation clock. The zero value is ready to
// use at time zero.
type Kernel struct {
	now     Time
	seq     uint64
	heap    eventHeap
	stopped bool
	// interrupted is the only cross-goroutine surface of the kernel: a
	// watchdog may set it while the dispatch loop runs. It is sticky; a
	// kernel is single-run and never reused after an interrupt.
	interrupted atomic.Bool
	// stats
	dispatched    uint64
	cancelled     uint64
	heapHighWater int
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Dispatched reports how many events have run, useful for progress and
// regression tests.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Scheduled reports how many events have ever been scheduled (fired,
// pending or cancelled).
func (k *Kernel) Scheduled() uint64 { return k.seq }

// Cancelled reports how many scheduled events were cancelled before firing.
func (k *Kernel) Cancelled() uint64 { return k.cancelled }

// HeapHighWater reports the deepest the event queue has ever been — the
// kernel's memory high-water mark, and the first number to look at when a
// model floods the queue.
func (k *Kernel) HeapHighWater() int { return k.heapHighWater }

// HeapPushes reports how many events have been pushed onto the event heap.
func (k *Kernel) HeapPushes() uint64 { return k.heap.pushes }

// HeapPops reports how many events have been popped off the event heap
// (dispatches and cancellations both pop).
func (k *Kernel) HeapPops() uint64 { return k.heap.pops }

// HeapSwaps reports how many element moves the 4-ary event heap has
// performed — one per element shifted a level during a sift, across all
// pushes, pops and removals. This is the hot-path cost metric an
// event-queue optimization is expected to move, where push/pop counts only
// reflect event traffic.
func (k *Kernel) HeapSwaps() uint64 { return k.heap.moves }

// Schedule runs fn at absolute time at. Scheduling in the past (before Now)
// panics: it always indicates a model bug, and silently clamping it would
// corrupt causality.
func (k *Kernel) Schedule(at Time, fn Handler) EventID {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	id := k.heap.push(at, k.seq, fn)
	k.seq++
	if n := len(k.heap.h); n > k.heapHighWater {
		k.heapHighWater = n
	}
	return id
}

// After runs fn delay picoseconds from now.
func (k *Kernel) After(delay Time, fn Handler) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.Schedule(k.now+delay, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and reports false, even when the
// event's slot has since been reused by a later event.
func (k *Kernel) Cancel(id EventID) bool {
	q := &k.heap
	if id.gen == 0 || int(id.slot) >= len(q.slots) || q.slots[id.slot].gen != id.gen {
		return false
	}
	q.remove(int(q.slots[id.slot].pos))
	q.release(id.slot)
	k.cancelled++
	return true
}

// Pending reports the number of events waiting in the queue.
func (k *Kernel) Pending() int { return len(k.heap.h) }

// Stop makes Run return after the currently dispatching event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Interrupt asks the dispatch loop to stop. Unlike Stop it is safe to call
// from another goroutine — it is how a wall-clock watchdog aborts a run
// that hangs or livelocks. The loop checks the flag every interruptCheck
// dispatches, so the abort lands within microseconds of real time without
// taxing the hot path. The flag is sticky: once interrupted, RunUntil and
// Run return immediately until the kernel is discarded.
func (k *Kernel) Interrupt() { k.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (k *Kernel) Interrupted() bool { return k.interrupted.Load() }

// interruptCheck is how many dispatches pass between polls of the
// interrupt flag — one atomic load per 1024 events keeps the overhead
// unmeasurable while bounding abort latency.
const interruptCheck = 1024

// Step dispatches the single next event, if any, and reports whether one ran.
// The event's slot is released before its handler runs, so a handler that
// reschedules itself reuses the slot it just vacated.
func (k *Kernel) Step() bool {
	if len(k.heap.h) == 0 {
		return false
	}
	e := k.heap.popMin()
	fn := k.heap.release(e.slot)
	k.now = e.at
	k.dispatched++
	fn()
	return true
}

// RunUntil dispatches events until the queue drains, Stop is called, or the
// next event would fire strictly after deadline. The clock is left at
// min(deadline, last event time); if the queue still holds later events the
// clock is advanced to the deadline so that callers observe a full interval.
func (k *Kernel) RunUntil(deadline Time) {
	k.stopped = false
	for !k.stopped {
		if len(k.heap.h) == 0 {
			break
		}
		if k.heap.h[0].at > deadline {
			break
		}
		if k.dispatched%interruptCheck == 0 && k.interrupted.Load() {
			return
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// Run dispatches events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped {
		if k.dispatched%interruptCheck == 0 && k.interrupted.Load() {
			return
		}
		if !k.Step() {
			break
		}
	}
}

// Clock converts between cycles and picoseconds for one frequency domain.
type Clock struct {
	period Time // picoseconds per cycle
}

// NewClock returns a clock for the given frequency in MHz. Frequencies must
// divide evenly enough that the period stays exact at ps resolution for the
// frequencies used by the model (400–600 MHz in 50 MHz steps, plus memory
// domains); any remainder is rounded to the nearest picosecond, which at
// 600 MHz is a 0.00006% error — far below the model's fidelity.
func NewClock(mhz float64) Clock {
	if mhz <= 0 {
		panic(fmt.Sprintf("sim: non-positive frequency %v", mhz))
	}
	return Clock{period: Time(math.Round(1e6 / mhz))}
}

// Period returns picoseconds per cycle.
func (c Clock) Period() Time { return c.period }

// MHz returns the clock frequency in MHz.
func (c Clock) MHz() float64 { return 1e6 / float64(c.period) }

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.period }

// CyclesIn reports how many full cycles fit in d.
func (c Clock) CyclesIn(d Time) int64 {
	if d < 0 {
		return 0
	}
	return int64(d / c.period)
}

// Ticker invokes a callback every interval until cancelled. It is used for
// DVS monitor windows and periodic statistics sampling. Each window re-arms
// the same stored handler, so a running ticker allocates nothing.
type Ticker struct {
	k        *Kernel
	interval Time
	fn       func(Time)
	fire     Handler
	id       EventID
	stopped  bool
}

// NewTicker schedules fn every interval starting interval from now. fn
// receives the firing time.
func NewTicker(k *Kernel, interval Time, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	t := &Ticker{k: k, interval: interval, fn: fn}
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fn(t.k.Now())
		if !t.stopped {
			t.id = t.k.After(t.interval, t.fire)
		}
	}
	t.id = k.After(interval, t.fire)
	return t
}

// Interval returns the ticker period.
func (t *Ticker) Interval() Time { return t.interval }

// SetInterval changes the period for subsequent firings.
func (t *Ticker) SetInterval(iv Time) {
	if iv <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", iv))
	}
	t.interval = iv
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.k.Cancel(t.id)
}
