package npu

import (
	"testing"

	"nepdvs/internal/isa"
	"nepdvs/internal/sim"
	"nepdvs/internal/traffic"
)

// The reference path allocates nothing per reference: each context's
// request and handlers are bound once, the controllers keep one request in
// service, and every queue reuses its ring. These guards run the kernel in
// steady state and require zero allocations per step.

func TestMemoryReferencePathAllocFree(t *testing.T) {
	cfg := microConfig(4)
	prog := isa.MustAssemble("refs", `
	imm     r1, 64
	imm     r3, 512
loop:
	sram.r  r2, r1, 2
	sdram.w r1, r2, 4
	scr.w   r3, r2
	addi    r1, r1, 72
	andi    r1, r1, 8191
	br      loop
`)
	k := &sim.Kernel{}
	chip, err := New(cfg, k, []*isa.Program{prog, isa.MustAssemble("stub", "halt")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(20 * sim.Microsecond)
	me := chip.ME(0)
	before := me.MemRefs()
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 500; i++ {
			k.Step()
		}
	}); allocs != 0 {
		t.Errorf("%v allocations per 500 steps of sram/sdram/scratch references, want 0", allocs)
	}
	if refs := me.MemRefs() - before; refs < 1000 {
		t.Fatalf("only %d references issued while measuring", refs)
	}
}

func TestTransmitBackpressurePathAllocFree(t *testing.T) {
	k, chip := egressChip(t, 100, nil) // 120 µs per 1500-byte frame
	var pkts []traffic.Packet
	for i := 0; i < 40; i++ {
		pkts = append(pkts, traffic.Packet{
			ID: uint64(i), Arrival: sim.Time(i+1) * sim.Microsecond, Size: 1500, Port: 0,
		})
	}
	if err := chip.Inject(pkts); err != nil {
		t.Fatal(err)
	}
	// Past the last arrival, every packet is on the ring or in a send.
	k.RunUntil(200 * sim.Microsecond)
	if chip.pktsArrived != 40 || chip.waiters[1].len() == 0 {
		t.Fatalf("arrived %d, waiting sends %d: not backpressured", chip.pktsArrived, chip.waiters[1].len())
	}
	// Each measured run steps to the next transmit completion, which
	// hands the freed TFIFO slot to a waiting send.
	if allocs := testing.AllocsPerRun(10, func() {
		for sent := chip.pktsSent; chip.pktsSent == sent; {
			k.Step()
		}
	}); allocs != 0 {
		t.Errorf("%v allocations per backpressured send, want 0", allocs)
	}
	if chip.waiters[1].len() == 0 {
		t.Fatal("the TFIFO drained while measuring")
	}
}
