package sim

import (
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
// events, and Pending always matches the reference.
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
				// 0.8 children per event on average: the cascade dies out.
				for n := rng.Intn(5) / 2; n > 0; n-- {
					schedule(k.Now() + Time(rng.Int63n(20)))
				}
				if len(issued) > 0 && rng.Intn(2) == 0 {
					cancelRandom(&k, rng, issued, pending, fail)
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
	e := issued[rng.Intn(len(issued))]
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
