package sim

import (
	"testing"

	"nepdvs/internal/obs"
)

func TestHeapOperationCounters(t *testing.T) {
	var k Kernel
	ids := make([]EventID, 0, 64)
	for i := 63; i >= 0; i-- {
		ids = append(ids, k.Schedule(Time(i), func() {}))
	}
	if k.HeapPushes() != 64 {
		t.Fatalf("HeapPushes = %d, want 64", k.HeapPushes())
	}
	// Reverse-order insertion into the 4-ary heap must sift: every push
	// except the first moves at least its new parent down a level.
	if k.HeapSwaps() == 0 {
		t.Fatal("reverse-order pushes performed no swaps")
	}
	if !k.Cancel(ids[10]) {
		t.Fatal("cancel failed")
	}
	k.Run()
	// Every scheduled event leaves the heap exactly once, by dispatch or
	// by cancellation.
	if k.HeapPops() != 64 {
		t.Fatalf("HeapPops = %d, want 64 (63 dispatched + 1 cancelled)", k.HeapPops())
	}
	if k.Dispatched() != 63 || k.Cancelled() != 1 {
		t.Fatalf("dispatched %d cancelled %d, want 63/1", k.Dispatched(), k.Cancelled())
	}
}

func TestHeapCountersDeterministic(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		var k Kernel
		for i := 0; i < 100; i++ {
			// A fixed pseudo-random-ish schedule with nested reschedules.
			at := Time((i * 37) % 100)
			k.Schedule(at, func() { k.After(3, func() {}) })
		}
		k.Run()
		return k.HeapPushes(), k.HeapPops(), k.HeapSwaps()
	}
	p1, o1, s1 := run()
	p2, o2, s2 := run()
	if p1 != p2 || o1 != o2 || s1 != s2 {
		t.Fatalf("heap counters not deterministic: %d/%d/%d vs %d/%d/%d", p1, o1, s1, p2, o2, s2)
	}
}

func TestPublishMetricsHeapCounters(t *testing.T) {
	var k Kernel
	for i := 0; i < 10; i++ {
		k.Schedule(Time(i), func() {})
	}
	k.Run()
	reg := obs.NewRegistry()
	k.PublishMetrics(reg)
	s := reg.Snapshot()
	for _, name := range []string{"sim_heap_pushes", "sim_heap_pops", "sim_heap_swaps", "sim_time_total_ps"} {
		if _, ok := s.Counters[name]; !ok {
			t.Errorf("snapshot missing counter %q", name)
		}
	}
	if s.Counters["sim_heap_pushes"] != k.HeapPushes() || s.Counters["sim_heap_pops"] != k.HeapPops() {
		t.Fatalf("published heap counters disagree with kernel: %+v", s.Counters)
	}
	if s.Counters["sim_time_total_ps"] != uint64(k.Now()) {
		t.Fatalf("sim_time_total_ps = %d, want %d", s.Counters["sim_time_total_ps"], k.Now())
	}
}
