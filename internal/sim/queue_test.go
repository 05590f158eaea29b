package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refEvent is one pending event in the reference model: the queue must
// dispatch pending events in (at, seq) order.
type refEvent struct {
	at  Time
	seq uint64
	id  EventID
}

// Property: random schedule, nested-reschedule and cancel sequences
// dispatch exactly in (at, seq) order, Cancel succeeds exactly on pending
// events, and Pending always matches the reference, also inside handlers:
// the dispatched event no longer counts, and a handler that cancels before
// it schedules meets that event still held at the heap root.
func TestQueueMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var k Kernel
		pending := map[uint64]refEvent{} // by seq
		var issued []refEvent            // every ID ever handed out
		ok := true
		fail := func(format string, args ...any) {
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			ok = false
		}
		checkPending := func() {
			if k.Pending() != len(pending) {
				fail("at %v: Pending = %d, reference %d", k.Now(), k.Pending(), len(pending))
			}
		}
		var schedule func(at Time)
		handler := func(seq uint64) Handler {
			return func() {
				// The dispatched event must be the reference minimum.
				var min refEvent
				first := true
				for _, e := range pending {
					if first || e.at < min.at || (e.at == min.at && e.seq < min.seq) {
						min, first = e, false
					}
				}
				if first || min.seq != seq || k.Now() != min.at {
					fail("dispatched seq %d at %v, reference minimum seq %d at %v", seq, k.Now(), min.seq, min.at)
				}
				delete(pending, seq)
				checkPending()
				cancelFirst := rng.Intn(3) == 0
				if cancelFirst {
					cancelPending(&k, rng, issued, pending, fail)
					checkPending()
				}
				// 0.8 children per event on average: the cascade dies out.
				for n := rng.Intn(5) / 2; n > 0; n-- {
					schedule(k.Now() + Time(rng.Int63n(20)))
					checkPending()
				}
				if !cancelFirst && rng.Intn(2) == 0 {
					cancelRandom(&k, rng, issued, pending, fail)
					checkPending()
				}
			}
		}
		schedule = func(at Time) {
			seq := k.Scheduled()
			id := k.Schedule(at, handler(seq))
			e := refEvent{at: at, seq: seq, id: id}
			pending[seq] = e
			issued = append(issued, e)
		}
		for i := 0; i < 50; i++ {
			schedule(Time(rng.Int63n(50)))
		}
		for i := 0; i < 10; i++ {
			cancelRandom(&k, rng, issued, pending, fail)
		}
		for k.Pending() > 0 {
			if k.Pending() != len(pending) {
				fail("Pending = %d, reference %d", k.Pending(), len(pending))
				break
			}
			k.Step()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// cancelRandom cancels a random previously issued ID — pending or stale —
// and checks the result against the reference.
func cancelRandom(k *Kernel, rng *rand.Rand, issued []refEvent, pending map[uint64]refEvent, fail func(string, ...any)) {
	cancel(k, issued[rng.Intn(len(issued))], pending, fail)
}

// cancelPending cancels a random pending event, if there is one.
func cancelPending(k *Kernel, rng *rand.Rand, issued []refEvent, pending map[uint64]refEvent, fail func(string, ...any)) {
	var live []refEvent
	for _, e := range issued {
		if _, ok := pending[e.seq]; ok {
			live = append(live, e)
		}
	}
	if len(live) > 0 {
		cancel(k, live[rng.Intn(len(live))], pending, fail)
	}
}

func cancel(k *Kernel, e refEvent, pending map[uint64]refEvent, fail func(string, ...any)) {
	_, live := pending[e.seq]
	if got := k.Cancel(e.id); got != live {
		fail("Cancel(seq %d) = %v, want %v", e.seq, got, live)
	}
	delete(pending, e.seq)
}

func TestStaleIDDoesNotCancelSlotReuse(t *testing.T) {
	var k Kernel
	fired := k.Schedule(1, func() {})
	k.Run()
	cancelled := k.Schedule(2, func() {})
	if !k.Cancel(cancelled) {
		t.Fatal("cancel of pending event failed")
	}
	ran := false
	// Both earlier slots are free again; this event reuses one of them.
	k.Schedule(3, func() { ran = true })
	if k.Cancel(fired) || k.Cancel(cancelled) {
		t.Fatal("stale ID cancelled an event that reused its slot")
	}
	if k.Cancel(EventID{}) {
		t.Fatal("zero EventID cancelled an event")
	}
	k.Run()
	if !ran {
		t.Fatal("event in a reused slot did not run")
	}
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	var k Kernel
	fn := func() {}
	// Warm the heap and slab past their high-water mark.
	for i := 0; i < 64; i++ {
		k.After(Time(i), fn)
	}
	if a := testing.AllocsPerRun(1000, func() {
		k.After(7, fn)
		k.Step()
	}); a != 0 {
		t.Fatalf("After+Step allocates %v per op, want 0", a)
	}
	var tk Kernel
	NewTicker(&tk, 10, func(Time) {})
	tk.Step()
	if a := testing.AllocsPerRun(1000, func() { tk.Step() }); a != 0 {
		t.Fatalf("Ticker window allocates %v, want 0", a)
	}
}

// streamRun plays one random script: other events scheduled before and
// after a time-sorted stream of n events with many equal timestamps, and
// handlers that schedule children landing on the stream's times. reserve
// selects how the stream enters the queue: a Reserve block with each
// stream event filed from its predecessor's handler, or every event up
// front through Schedule. It returns the dispatch order as labels.
func streamRun(seed int64, reserve bool) (order []string, k *Kernel) {
	rng := rand.New(rand.NewSource(seed))
	k = &Kernel{}
	n := 1 + rng.Intn(60)
	times := make([]Time, n)
	for i := 1; i < n; i++ {
		times[i] = times[i-1] + Time(rng.Intn(3)) // ~1/3 ties
	}
	others := 0
	var other func(at Time)
	other = func(at Time) {
		label := fmt.Sprintf("o%d", others)
		others++
		k.Schedule(at, func() {
			order = append(order, label)
			for c := rng.Intn(5) / 2; c > 0; c-- {
				other(k.Now() + Time(rng.Intn(3)))
			}
		})
	}
	for i := rng.Intn(20); i > 0; i-- {
		other(Time(rng.Int63n(int64(times[n-1]) + 2)))
	}
	var first uint64
	next := 0
	var stream Handler
	stream = func() {
		i := next
		next++
		if reserve && i+1 < n {
			k.ScheduleReserved(times[i+1], first+uint64(i+1), stream)
		}
		order = append(order, fmt.Sprintf("s%d", i))
		if rng.Intn(2) == 0 {
			other(k.Now() + Time(rng.Intn(3)))
		}
	}
	if reserve {
		first = k.Reserve(n)
		k.ScheduleReserved(times[0], first, stream)
	} else {
		first = k.Scheduled()
		for _, at := range times {
			k.Schedule(at, stream)
		}
	}
	for i := rng.Intn(20); i > 0; i-- {
		other(Time(rng.Int63n(int64(times[n-1]) + 2)))
	}
	k.Run()
	return order, k
}

// Differential: a stream filed one event at a time under reserved sequence
// numbers dispatches in exactly the order of scheduling it up front, with
// the same traffic, while the queue holds at most one stream event.
func TestReservedStreamMatchesUpFront(t *testing.T) {
	f := func(seed int64) bool {
		want, up := streamRun(seed, false)
		got, res := streamRun(seed, true)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("seed %d: reserved order %v, up-front order %v", seed, got, want)
			return false
		}
		if res.Scheduled() != up.Scheduled() || res.HeapPushes() != up.HeapPushes() ||
			res.HeapPops() != up.HeapPops() || res.Dispatched() != up.Dispatched() {
			t.Errorf("seed %d: traffic differs: scheduled %d/%d pushes %d/%d pops %d/%d dispatched %d/%d", seed,
				res.Scheduled(), up.Scheduled(), res.HeapPushes(), up.HeapPushes(),
				res.HeapPops(), up.HeapPops(), res.Dispatched(), up.Dispatched())
			return false
		}
		if res.HeapHighWater() > up.HeapHighWater() {
			t.Errorf("seed %d: reserved high water %d above up-front %d", seed, res.HeapHighWater(), up.HeapHighWater())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleReservedRejectsUnreserved(t *testing.T) {
	var k Kernel
	first := k.Reserve(2)
	k.Schedule(0, func() {})
	for _, seq := range []uint64{first + 3, first + 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScheduleReserved(seq %d) with %d handed out did not panic", seq, k.Scheduled())
				}
			}()
			k.ScheduleReserved(1, seq, func() {})
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Reserve(-1) did not panic")
		}
	}()
	k.Reserve(-1)
}
