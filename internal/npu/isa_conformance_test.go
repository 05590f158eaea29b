package npu

// ISA conformance: run small hand-written microcode programs through the
// full ME interpreter and assert on the architectural side effects
// (scratchpad contents), pinning the semantics of every opcode.

import (
	"testing"

	"nepdvs/internal/isa"
	"nepdvs/internal/sim"
)

// runMicro assembles src onto ME0 of a 2-ME chip (ME1 runs a halt stub),
// runs to quiescence and returns the chip for inspection.
func runMicro(t *testing.T, src string) (*Chip, *sim.Kernel) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumMEs = 2
	cfg.RxMEs = 1
	cfg.NumCtx = 1
	prog, err := isa.Assemble("micro", src)
	if err != nil {
		t.Fatal(err)
	}
	stub := isa.MustAssemble("stub", "halt")
	k := &sim.Kernel{}
	chip, err := New(cfg, k, []*isa.Program{prog, stub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	return chip, k
}

// scratchAt reads a scratch word written by the program.
func scratchAt(c *Chip, addr int64) int64 { return c.scratchRead(addr) }

func TestArithmeticSemantics(t *testing.T) {
	chip, _ := runMicro(t, `
	imm   r1, 7
	imm   r2, 3
	add   r3, r1, r2      ; 10
	imm   r10, 100
	scr.w r10, r3
	sub   r3, r1, r2      ; 4
	imm   r10, 101
	scr.w r10, r3
	mul   r3, r1, r2      ; 21
	imm   r10, 102
	scr.w r10, r3
	and   r3, r1, r2      ; 3
	imm   r10, 103
	scr.w r10, r3
	or    r3, r1, r2      ; 7
	imm   r10, 104
	scr.w r10, r3
	xor   r3, r1, r2      ; 4
	imm   r10, 105
	scr.w r10, r3
	shl   r3, r1, r2      ; 56
	imm   r10, 106
	scr.w r10, r3
	shr   r3, r1, r2      ; 0
	imm   r10, 107
	scr.w r10, r3
	addi  r3, r1, 5       ; 12
	imm   r10, 108
	scr.w r10, r3
	subi  r3, r1, 5       ; 2
	imm   r10, 109
	scr.w r10, r3
	andi  r3, r1, 6       ; 6
	imm   r10, 110
	scr.w r10, r3
	shli  r3, r1, 2       ; 28
	imm   r10, 111
	scr.w r10, r3
	shri  r3, r1, 1       ; 3
	imm   r10, 112
	scr.w r10, r3
	mov   r3, r1          ; 7
	imm   r10, 113
	scr.w r10, r3
	halt
`)
	want := map[int64]int64{
		100: 10, 101: 4, 102: 21, 103: 3, 104: 7, 105: 4, 106: 56, 107: 0,
		108: 12, 109: 2, 110: 6, 111: 28, 112: 3, 113: 7,
	}
	for addr, v := range want {
		if got := scratchAt(chip, addr); got != v {
			t.Errorf("scratch[%d] = %d, want %d", addr, got, v)
		}
	}
}

func TestNegativeImmediateAndShiftMasking(t *testing.T) {
	chip, _ := runMicro(t, `
	imm   r1, -8
	imm   r2, 2
	add   r3, r1, r2      ; -6
	imm   r10, 100
	scr.w r10, r3
	imm   r4, 65          ; shift amounts are masked to 6 bits: 65 & 63 = 1
	imm   r5, 1
	shl   r6, r5, r4      ; 1 << 1 = 2
	imm   r10, 101
	scr.w r10, r6
	halt
`)
	if got := scratchAt(chip, 100); got != -6 {
		t.Errorf("negative add = %d", got)
	}
	if got := scratchAt(chip, 101); got != 2 {
		t.Errorf("shift masking = %d, want 2", got)
	}
}

func TestBranchSemantics(t *testing.T) {
	chip, _ := runMicro(t, `
	imm   r1, 5
	imm   r2, 5
	imm   r3, 0
	beq   r1, r2, eq      ; taken
	imm   r3, 111         ; skipped
eq:
	imm   r10, 100
	scr.w r10, r3         ; 0
	bne   r1, r2, bad     ; not taken
	imm   r3, 222
bad:
	imm   r10, 101
	scr.w r10, r3         ; 222
	imm   r4, 3
	blt   r4, r1, less    ; 3 < 5: taken
	imm   r3, 333
less:
	imm   r10, 102
	scr.w r10, r3         ; still 222
	bge   r1, r4, done    ; 5 >= 3: taken
	imm   r3, 444
done:
	imm   r10, 103
	scr.w r10, r3         ; still 222
	halt
`)
	for addr, want := range map[int64]int64{100: 0, 101: 222, 102: 222, 103: 222} {
		if got := scratchAt(chip, addr); got != want {
			t.Errorf("scratch[%d] = %d, want %d", addr, got, want)
		}
	}
}

func TestLoopAndCountedBranch(t *testing.T) {
	// Sum 1..10 = 55 via a backward branch.
	chip, _ := runMicro(t, `
	imm   r1, 0           ; sum
	imm   r2, 1           ; k
	imm   r3, 11
loop:
	add   r1, r1, r2
	addi  r2, r2, 1
	blt   r2, r3, loop
	imm   r10, 100
	scr.w r10, r1
	halt
`)
	if got := scratchAt(chip, 100); got != 55 {
		t.Errorf("loop sum = %d, want 55", got)
	}
}

func TestHashDeterministicAndSpreading(t *testing.T) {
	chip, _ := runMicro(t, `
	imm   r1, 42
	hash  r2, r1
	hash  r3, r1          ; same input, same output
	sub   r4, r2, r3
	imm   r10, 100
	scr.w r10, r4         ; 0
	imm   r5, 43
	hash  r6, r5
	sub   r7, r2, r6      ; different inputs differ
	imm   r10, 101
	scr.w r10, r7
	halt
`)
	if got := scratchAt(chip, 100); got != 0 {
		t.Errorf("hash not deterministic: diff = %d", got)
	}
	if got := scratchAt(chip, 101); got == 0 {
		t.Error("hash(42) == hash(43)")
	}
}

func TestMemoryReadsReturnPseudoData(t *testing.T) {
	chip, _ := runMicro(t, `
	imm     r1, 4096
	sram.r  r2, r1, 2
	sram.r  r3, r1, 2     ; same address, same pseudo-data
	sub     r4, r2, r3
	imm     r10, 100
	scr.w   r10, r4
	sdram.r r5, r1, 4
	sub     r6, r2, r5    ; sram and sdram pseudo-data differ
	imm     r10, 101
	scr.w   r10, r6
	halt
`)
	if got := scratchAt(chip, 100); got != 0 {
		t.Errorf("sram read not deterministic: %d", got)
	}
	if got := scratchAt(chip, 101); got == 0 {
		t.Error("sram and sdram pseudo-data collide")
	}
}

func TestScratchRoundTrip(t *testing.T) {
	chip, _ := runMicro(t, `
	imm   r1, 500
	imm   r2, 12345
	scr.w r1, r2
	scr.r r3, r1
	imm   r10, 100
	scr.w r10, r3
	halt
`)
	if got := scratchAt(chip, 100); got != 12345 {
		t.Errorf("scratch round trip = %d", got)
	}
}

func TestMemoryBlockingAdvancesTime(t *testing.T) {
	cfg := DefaultConfig()
	// A single SDRAM access must take at least the row+burst time.
	_, k := runMicro(t, `
	imm     r1, 0
	sdram.r r2, r1, 8
	halt
`)
	minLatency := sim.Time(cfg.SdramRowNs * float64(sim.Nanosecond))
	if k.Now() < minLatency {
		t.Errorf("run finished at %v, before the SDRAM access could complete (%v)", k.Now(), minLatency)
	}
}

func TestCtxSwapSingleContextContinues(t *testing.T) {
	// With one context, ctx must be a no-op that doesn't deadlock.
	chip, _ := runMicro(t, `
	imm   r1, 1
	ctx
	addi  r1, r1, 1
	ctx
	addi  r1, r1, 1
	imm   r10, 100
	scr.w r10, r1
	halt
`)
	if got := scratchAt(chip, 100); got != 3 {
		t.Errorf("ctx swap broke sequencing: %d", got)
	}
}

func TestHaltStopsContext(t *testing.T) {
	chip, k := runMicro(t, `
	imm   r10, 100
	imm   r1, 1
	scr.w r10, r1
	halt
	imm   r1, 999         ; unreachable
	scr.w r10, r1
`)
	k.Run()
	if got := scratchAt(chip, 100); got != 1 {
		t.Errorf("instructions after halt executed: scratch = %d", got)
	}
	me := chip.mes[0]
	if me.liveContexts() != 0 {
		t.Error("context still live after halt")
	}
}

func TestCsrAccess(t *testing.T) {
	chip, _ := runMicro(t, `
	imm   r1, 7
	csr   r2, r1
	csr   r3, r1
	sub   r4, r2, r3
	imm   r10, 100
	scr.w r10, r4
	halt
`)
	if got := scratchAt(chip, 100); got != 0 {
		t.Errorf("csr read not deterministic: %d", got)
	}
}

func TestMultiContextInterleaving(t *testing.T) {
	// Four contexts run the same program; each adds 1 to a shared scratch
	// counter after a memory reference. All four must complete.
	cfg := DefaultConfig()
	cfg.NumMEs = 2
	cfg.RxMEs = 1
	cfg.NumCtx = 4
	prog := isa.MustAssemble("inc", `
	imm     r1, 64
	sdram.r r2, r1, 2     ; context swap point
	imm     r3, 200
	scr.r   r4, r3
	addi    r4, r4, 1
	scr.w   r3, r4
	halt
`)
	stub := isa.MustAssemble("stub", "halt")
	k := &sim.Kernel{}
	chip, err := New(cfg, k, []*isa.Program{prog, stub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	// The counter increment is not atomic across contexts (read/modify/
	// write with blocking scratch ops), so the final value is between 1
	// and 4 — but every context must have halted.
	if got := chip.scratchRead(200); got < 1 || got > 4 {
		t.Errorf("counter = %d, want 1..4", got)
	}
	if chip.mes[0].liveContexts() != 0 {
		t.Error("not all contexts halted")
	}
	if chip.mes[0].InstrCount() < 4*7 {
		t.Errorf("instruction count %d too low for 4 contexts", chip.mes[0].InstrCount())
	}
}

// TestBatchCapsMidLoopMultiContext pins the interpreter's context
// bookkeeping: four contexts run a loop whose body (16 cycles) is longer
// than most of the batch caps tried, so batches end mid-loop, right after
// context-swapping ops, and — at cap 1 — after every instruction. Every cap
// must leave the same per-context results in scratch and retire the same
// instruction count.
func TestBatchCapsMidLoopMultiContext(t *testing.T) {
	// Context IDs 0..3 are dealt through the tx ring, seeded before the
	// run; tx.pop is atomic, so each context draws a distinct ID whatever
	// the interleaving. Each context then runs id+3 iterations of a loop
	// mixing multi-cycle ALU ops, a voluntary swap and a blocking scratch
	// write.
	worker := isa.MustAssemble("worker", `
	imm     r1, 64
	sdram.r r2, r1, 1
	tx.pop  r3
	blt     r3, r0, bad
	addi    r4, r3, 3
	imm     r5, 1
	imm     r6, 0
loop:
	xor     r7, r6, r3
	hash    r7, r7
	imm     r8, 3
	mul     r5, r5, r8
	add     r5, r5, r7
	ctx
	addi    r10, r3, 400
	scr.w   r10, r6
	addi    r6, r6, 1
	blt     r6, r4, loop
	addi    r10, r3, 300
	scr.w   r10, r5
	halt
bad:
	imm     r10, 399
	imm     r1, 1
	scr.w   r10, r1
	halt
`)
	stub := isa.MustAssemble("stub", "halt")
	const (
		preamble = 7  // imm .. imm r6 before the loop
		body     = 10 // instructions per iteration
		tail     = 3  // final store and halt
	)
	var wantInstr uint64
	wantAcc := map[int64]int64{}
	for id := int64(0); id < 4; id++ {
		iters := id + 3
		acc := int64(1)
		for i := int64(0); i < iters; i++ {
			acc = acc*3 + hash64(i^id)
		}
		wantAcc[id] = acc
		wantInstr += uint64(preamble + body*iters + tail)
	}
	for _, batch := range []int64{1, 2, 3, 5, 7, 11, 16, 256} {
		cfg := DefaultConfig()
		cfg.NumMEs = 2
		cfg.RxMEs = 1
		cfg.NumCtx = 4
		cfg.BatchCycles = batch
		k := &sim.Kernel{}
		chip, err := New(cfg, k, []*isa.Program{worker, stub}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < 4; id++ {
			chip.txRingPush(id)
		}
		k.Run()
		if got := chip.scratchRead(399); got != 0 {
			t.Fatalf("batch %d: a context found the id ring empty", batch)
		}
		for id, want := range wantAcc {
			if got := chip.scratchRead(300 + id); got != want {
				t.Errorf("batch %d: ctx id %d acc = %d, want %d", batch, id, got, want)
			}
			if got := chip.scratchRead(400 + id); got != id+2 {
				t.Errorf("batch %d: ctx id %d last iteration = %d, want %d", batch, id, got, id+2)
			}
		}
		if got := chip.mes[0].InstrCount(); got != wantInstr {
			t.Errorf("batch %d: ME0 retired %d instructions, want %d", batch, got, wantInstr)
		}
		if chip.mes[0].liveContexts() != 0 {
			t.Errorf("batch %d: not all contexts halted", batch)
		}
	}
}
