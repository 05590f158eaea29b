package npu

// Superinstruction and empty-poll fast-forward conformance. The reference
// is the same chip with every ME's predecoded opcodes rewritten back to the
// program's own, so it runs each instruction on its own through the one
// interpreter; the fused chip must match it exactly.

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"nepdvs/internal/isa"
	"nepdvs/internal/policy"
	"nepdvs/internal/sim"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// fusionCaps are the batch caps the differential runs at: every split
// point of a two- and three-instruction sequence, a cap shorter than the
// ALU loop's six instructions, and the default.
var fusionCaps = []int64{1, 2, 3, 4, 5, 7, 256}

// unfuse rewrites every ME's predecoded opcodes back to the program's.
func unfuse(c *Chip, progs []*isa.Program) {
	for i, me := range c.mes {
		for j := range me.code {
			me.code[j].op = progs[i].Code[j].Op
		}
	}
}

// ctxObs is a context's architectural state.
type ctxObs struct {
	PC   int
	Regs [isa.NumRegs]int64
}

// meObs is one ME's counters and contexts at run end.
type meObs struct {
	Instr, Poll, Blocks, Stall uint64
	Ready, Live, MemWait       uint8
	Ctxs                       []ctxObs
}

// chipObs is everything the differential compares.
type chipObs struct {
	Snap          Stats
	MEs           []meObs
	RFIFO, TxRing int
	Scratch       map[int64]int64
	Events        []trace.Event
}

func observe(c *Chip, col *trace.Collector) chipObs {
	o := chipObs{
		Snap:    c.Snapshot(),
		RFIFO:   c.rfifo.len(),
		TxRing:  c.txRing.len(),
		Scratch: c.scratch,
		Events:  col.Events,
	}
	for _, me := range c.mes {
		m := meObs{Instr: me.InstrCount(), Poll: me.PollCycles(), Blocks: me.CtxBlocks(), Stall: me.StallCycles(),
			Ready: me.ready, Live: me.live, MemWait: me.memWait}
		for _, ctx := range me.ctxs {
			m.Ctxs = append(m.Ctxs, ctxObs{PC: ctx.pc, Regs: ctx.regs})
		}
		o.MEs = append(o.MEs, m)
	}
	return o
}

// diffObs reports the first difference between a fused and an unfused run.
func diffObs(t *testing.T, name string, fused, ref chipObs) {
	t.Helper()
	if !reflect.DeepEqual(fused.Snap, ref.Snap) {
		t.Errorf("%s: snapshot\nfused %+v\nref   %+v", name, fused.Snap, ref.Snap)
	}
	for i := range ref.MEs {
		if !reflect.DeepEqual(fused.MEs[i], ref.MEs[i]) {
			t.Errorf("%s: me%d\nfused %+v\nref   %+v", name, i, fused.MEs[i], ref.MEs[i])
		}
	}
	if fused.RFIFO != ref.RFIFO || fused.TxRing != ref.TxRing {
		t.Errorf("%s: queues fused rfifo %d ring %d, ref rfifo %d ring %d",
			name, fused.RFIFO, fused.TxRing, ref.RFIFO, ref.TxRing)
	}
	if !reflect.DeepEqual(fused.Scratch, ref.Scratch) {
		t.Errorf("%s: scratch\nfused %v\nref   %v", name, fused.Scratch, ref.Scratch)
	}
	if len(fused.Events) != len(ref.Events) {
		t.Errorf("%s: %d events fused, %d ref", name, len(fused.Events), len(ref.Events))
	}
	for i := range min(len(fused.Events), len(ref.Events)) {
		if !reflect.DeepEqual(fused.Events[i], ref.Events[i]) {
			t.Errorf("%s: event %d\nfused %+v\nref   %+v", name, i, fused.Events[i], ref.Events[i])
			break
		}
	}
}

// policyRun is one benchmark run under a registry policy, fused or not.
type policyRun struct {
	bench  workload.Name
	fac    *policy.Factory
	params policy.Params
	pkts   []traffic.Packet
	dur    sim.Time
}

func (r policyRun) run(t *testing.T, batch int64, fused bool) chipObs {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BatchCycles = batch
	cfg.MonitorOverhead = r.fac.Monitor
	cfg.IdleSampleWindow = 20 * sim.Microsecond
	// Pipeline events come one per batch; keep them to the default cap
	// so the collected streams stay small.
	cfg.EmitPipeline = batch == 256
	progs, err := workload.Programs(r.bench, workload.DefaultParams(), cfg.NumMEs, cfg.RxMEs)
	if err != nil {
		t.Fatal(err)
	}
	k := &sim.Kernel{}
	var col trace.Collector
	chip, err := New(cfg, k, progs, &col)
	if err != nil {
		t.Fatal(err)
	}
	if !fused {
		unfuse(chip, progs)
	}
	if _, err := r.fac.Start(policy.Env{
		Kernel: k, Chip: chip, RefMHz: cfg.RefMHz, Duration: r.dur,
		Params: r.params, Packets: r.pkts,
	}); err != nil {
		t.Fatal(err)
	}
	if err := chip.Inject(r.pkts); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(r.dur)
	return observe(chip, &col)
}

// TestFusedMatchesUnfusedWorkloads runs every benchmark under a chip-wide
// VF policy and a sleep-state policy at every cap, fused and unfused.
func TestFusedMatchesUnfusedWorkloads(t *testing.T) {
	dur := 200 * sim.Microsecond
	if testing.Short() {
		dur = 80 * sim.Microsecond
	}
	pkts := genTraffic(t, 1100, dur, 7)
	policies := []struct {
		name   string
		params policy.Params
	}{
		{"tdvs", policy.Params{"top_threshold_mbps": 1000, "window_cycles": 12000}},
		{"psm", policy.Params{"window_cycles": 12000, "sleep_idle_frac": 0.1, "wake_queue_frac": 0.05, "deep_windows": 1}},
	}
	// acted[p] counts the VF changes, wakes and sleeping MEs policy p
	// caused, so the differential is known to cover the transition paths.
	acted := make([]atomic.Uint64, len(policies))
	t.Run("runs", func(t *testing.T) {
		for _, bench := range workload.All {
			for p, pol := range policies {
				fac, err := policy.Lookup(pol.name)
				if err != nil {
					t.Fatal(err)
				}
				r := policyRun{bench: bench, fac: fac, params: pol.params, pkts: pkts, dur: dur}
				t.Run(string(bench)+"/"+pol.name, func(t *testing.T) {
					t.Parallel()
					for _, batch := range fusionCaps {
						ref := r.run(t, batch, false)
						diffObs(t, fmt.Sprintf("batch%d", batch), r.run(t, batch, true), ref)
						for i, n := range ref.Snap.MEVFChanges {
							acted[p].Add(n + ref.Snap.MESleepWakes[i])
							if ref.Snap.MESleepFrac[i] > 0 {
								acted[p].Add(1)
							}
						}
					}
				})
			}
		}
	})
	for p, pol := range policies {
		if acted[p].Load() == 0 {
			t.Errorf("%s never changed a VF or sleep state", pol.name)
		}
	}
}

// microPair runs progs fused and unfused on a chip shaped by cfg, with
// pkts injected, until deadline, at every cap, and compares the runs.
func microPair(t *testing.T, name string, cfg Config, progs []*isa.Program, pkts []traffic.Packet, deadline sim.Time) {
	t.Helper()
	for _, batch := range fusionCaps {
		run := func(fused bool) chipObs {
			c := cfg
			c.BatchCycles = batch
			k := &sim.Kernel{}
			var col trace.Collector
			chip, err := New(c, k, progs, &col)
			if err != nil {
				t.Fatal(err)
			}
			if !fused {
				unfuse(chip, progs)
			}
			if err := chip.Inject(pkts); err != nil {
				t.Fatal(err)
			}
			k.RunUntil(deadline)
			return observe(chip, &col)
		}
		diffObs(t, fmt.Sprintf("%s/batch%d", name, batch), run(true), run(false))
	}
}

// burst is n back-to-back minimum-size packets on port 0 starting at 1 µs.
func burst(n int, gap sim.Time) []traffic.Packet {
	var pkts []traffic.Packet
	for i := 0; i < n; i++ {
		pkts = append(pkts, traffic.Packet{
			ID: uint64(i), Arrival: sim.Microsecond + sim.Time(i)*gap, Size: 64, Port: 0,
		})
	}
	return pkts
}

// microConfig is a two-ME chip: ME0 runs the program under test.
func microConfig(ctxs int) Config {
	cfg := DefaultConfig()
	cfg.NumMEs = 2
	cfg.RxMEs = 1
	cfg.Ports = 2
	cfg.NumCtx = ctxs
	return cfg
}

func TestFusedMatchesUnfusedMicro(t *testing.T) {
	stub := isa.MustAssemble("stub", "halt")
	drain := isa.MustAssemble("drain", `
main:
	tx.pop  r0
	imm     r1, -1
	beq     r0, r1, main
	send    r0
	br      main
`)
	cases := []struct {
		name string
		src  string
		tx   *isa.Program
		pkts []traffic.Packet
		ring int // TxRingDepth, 0 for the default
	}{
		{
			// The imm overwrites the popped register, so only the pop's
			// own return tells an empty queue from a packet.
			name: "imm-aliases-pop",
			src: `
main:
	rx.pop  r0
	imm     r0, -1
	beq     r0, r0, main
`,
			pkts: burst(40, 300*sim.Nanosecond),
		},
		{
			// The roles swapped: the pop fills the branch's second
			// operand and the imm its first.
			name: "pop-into-comparand",
			src: `
main:
	rx.pop  r1
	imm     r0, -1
	beq     r0, r1, main
	scr.w   r1, r1
	br      main
`,
			pkts: burst(10, sim.Microsecond),
		},
		{
			// The empty poll branches to an instruction before its head,
			// so no two iterations are alike.
			name: "poll-target-not-head",
			src: `
top:
	addi    r5, r5, 1
	rx.pop  r0
	imm     r1, -1
	beq     r0, r1, top
	scr.w   r0, r5
	br      top
`,
			pkts: burst(20, 2*sim.Microsecond),
		},
		{
			// A poll whose branch skips forward: taken, but not to itself.
			name: "poll-target-forward",
			src: `
main:
	rx.pop  r0
	imm     r1, -1
	beq     r0, r1, idle
	scr.w   r0, r1
	br      main
idle:
	addi    r6, r6, 1
	br      main
`,
			pkts: burst(20, 2*sim.Microsecond),
		},
		{
			// Branches land on the second and third members of the ALU
			// triple, on the imm of a poll and on the imm of a loop tail.
			name: "branch-into-sequence",
			src: `
	imm     r14, 301
	br      mid
top:
	addi    r15, r15, 17
mid:
	shli    r13, r15, 3
last:
	xor     r15, r15, r13
	andi    r12, r14, 3
	imm     r11, 1
	beq     r12, r11, pollimm
	imm     r11, 2
	beq     r12, r11, last
	imm     r11, 3
	beq     r12, r11, tailimm
	subi    r14, r14, 1
tailimm:
	imm     r10, 0
	bne     r14, r10, top
	scr.w   r10, r15
	halt
pollimm:
	subi    r14, r14, 1
	rx.pop  r0
	imm     r1, -1
	beq     r0, r1, mid
	scr.w   r0, r14
	br      mid
`,
			pkts: burst(5, 3*sim.Microsecond),
		},
		{
			// An imm;beq head second to last, reached every iteration,
			// after an unreachable truncated ALU triple.
			name: "head-at-end",
			src: `
	imm     r3, 0
top:
	addi    r2, r2, 1
	imm     r4, 90
	blt     r2, r4, more
	scr.w   r3, r2
	halt
	addi    r7, r7, 1
	shli    r8, r7, 3
more:
	imm     r1, 0
	beq     r3, r1, top
`,
		},
		{
			// An imm;bne self-loop, then a poll cut short by the end of
			// the code.
			name: "poll-last",
			src: `
	br      main
	halt
main:
	imm     r2, 7
	bne     r2, r0, main
	rx.pop  r0
	imm     r1, -1
`,
		},
		{
			// The standard receive poll with a busy RFIFO: pops return
			// packets, which go through the ring to a transmitting ME, so
			// the skip must not fire while the queue holds work.
			name: "busy-rfifo",
			src: `
main:
	rx.pop  r0
	imm     r1, -1
	beq     r0, r1, main
push:
	tx.push r2, r0
	imm     r3, 0
	beq     r2, r3, main
	ctx
	br      push
`,
			tx:   drain,
			pkts: burst(60, 150*sim.Nanosecond),
		},
		{
			// A counted loop entered with its counter at 0: the subi
			// wraps it below the exit value, so only the deadline ends
			// the loop.
			name: "alu-loop-wraps",
			src: `
	imm     r11, 0
loop:
	addi    r15, r15, 17
	shli    r13, r15, 3
	xor     r15, r15, r13
	subi    r11, r11, 1
	imm     r12, 0
	bne     r11, r12, loop
	scr.w   r11, r15
	halt
`,
		},
		{
			// Counted loops shorter than and longer than the 42 whole
			// iterations of a default batch, one with a nonzero exit
			// value and a stride of 2, each turn ended by a scratch write.
			name: "alu-loop-short-long",
			src: `
top:
	imm     r11, 5
short:
	addi    r15, r15, 17
	shli    r13, r15, 3
	xor     r15, r15, r13
	subi    r11, r11, 1
	imm     r12, 0
	bne     r11, r12, short
	scr.w   r11, r15
	imm     r14, 100
long:
	addi    r5, r5, 3
	shli    r6, r5, 7
	xor     r5, r5, r6
	subi    r14, r14, 2
	imm     r7, 4
	bne     r14, r7, long
	scr.w   r14, r5
	br      top
`,
		},
		{
			// A one-slot ring: contexts spin on a full ring while another
			// is ready and busy in an ALU loop longer than a batch, so no
			// round of the batch is all spin.
			name: "push-spin-beside-alu",
			src: `
main:
	rx.pop  r0
	imm     r1, -1
	beq     r0, r1, main
	imm     r11, 80
busy:
	addi    r15, r15, 17
	shli    r13, r15, 3
	xor     r15, r15, r13
	subi    r11, r11, 1
	imm     r12, 0
	bne     r11, r12, busy
push:
	tx.push r2, r0
	imm     r3, 0
	beq     r2, r3, main
	ctx
	br      push
`,
			tx:   drain,
			pkts: burst(40, 150*sim.Nanosecond),
			ring: 1,
		},
		{
			// A ring that never drains: after the first push every
			// context spins, each joining the spin when its SDRAM read
			// completes between the ME's batches.
			name: "push-spin-memory-wake",
			src: `
main:
	rx.pop  r0
	imm     r1, -1
	beq     r0, r1, main
	sdram.r r4, r0, 4
push:
	tx.push r2, r0
	imm     r3, 0
	beq     r2, r3, main
	ctx
	br      push
`,
			pkts: burst(6, 3*sim.Microsecond),
			ring: 1,
		},
		{
			// A retry whose beq ignores the push status: the context
			// keeps pushing while the ring has room, and the transmitting
			// ME counts what it pops, so a push skipped as a spin shows.
			name: "push-status-ignored",
			src: `
main:
	rx.pop  r0
	imm     r1, -1
	beq     r0, r1, main
	imm     r5, 1
push:
	tx.push r2, r0
	imm     r3, 0
	beq     r5, r3, main
	ctx
	br      push
`,
			tx: isa.MustAssemble("count", `
main:
	tx.pop  r0
	imm     r1, -1
	beq     r0, r1, main
	addi    r9, r9, 1
	scr.w   r9, r0
	br      main
`),
			pkts: burst(2, 3*sim.Microsecond),
			ring: 8,
		},
	}
	for _, tc := range cases {
		prog := isa.MustAssemble(tc.name, tc.src)
		second := stub
		if tc.tx != nil {
			second = tc.tx
		}
		for _, ctxs := range []int{1, 4} {
			cfg := microConfig(ctxs)
			if tc.ring > 0 {
				cfg.TxRingDepth = tc.ring
			}
			microPair(t, fmt.Sprintf("%s/ctx%d", tc.name, ctxs), cfg,
				[]*isa.Program{prog, second}, tc.pkts, 60*sim.Microsecond)
		}
	}
}

// TestPredecodeFusionTable pins which heads predecode tags: whole
// sequences only, never reading past the end of the code.
func TestPredecodeFusionTable(t *testing.T) {
	for op := opImmBeq; op <= opTxRetry; op++ {
		if name := (isa.Instr{Op: op}).String(); name != "" {
			t.Fatalf("fused op %d collides with ISA op %q", op, name)
		}
	}
	prog := isa.MustAssemble("table", `
main:
	rx.pop  r0
	imm     r1, -1
	beq     r0, r1, main
	tx.pop  r0
	imm     r1, -1
	beq     r0, r1, main
	addi    r15, r15, 17
	shli    r13, r15, 3
	xor     r15, r15, r13
	subi    r14, r14, 1
	imm     r12, 0
	bne     r14, r12, main
	imm     r2, 4
	beq     r2, r2, main
loop:
	addi    r15, r15, 17
	shli    r13, r15, 3
	xor     r15, r15, r13
	subi    r11, r11, 1
	imm     r12, 0
	bne     r11, r12, loop
rx:
	addi    r15, r15, 17
	shli    r13, r15, 3
	xor     r15, r15, r13
	subi    r15, r15, 1
	imm     r12, 0
	bne     r15, r12, rx
ry:
	addi    r15, r15, 17
	shli    r13, r15, 3
	xor     r15, r15, r13
	subi    r13, r13, 1
	imm     r12, 0
	bne     r13, r12, ry
rz:
	addi    r15, r15, 17
	shli    r13, r15, 3
	xor     r15, r15, r13
	subi    r11, r11, 1
	imm     r11, 0
	bne     r11, r11, rz
push:
	tx.push r2, r0
	imm     r3, 0
	beq     r2, r3, main
	ctx
	br      push
	tx.push r2, r0
	imm     r3, 0
	beq     r2, r3, main
	ctx
	br      push
	rx.pop  r0
	imm     r1, -1
	addi    r15, r15, 17
	shli    r13, r15, 3
`)
	want := []isa.Op{
		opRxPoll, opImmBeq, isa.OpBeq,
		opTxPoll, opImmBeq, isa.OpBeq,
		// bne to another label: the body and the tail, not the loop.
		opAluStep, isa.OpShli, isa.OpXor,
		opSubiImmBne, opImmBne, isa.OpBne,
		opImmBeq, isa.OpBeq,
		// The self-loop.
		opAluLoop, isa.OpShli, isa.OpXor,
		opSubiImmBne, opImmBne, isa.OpBne,
		// The counter aliases rX, then rY; then the imm writes it.
		opAluStep, isa.OpShli, isa.OpXor,
		opSubiImmBne, opImmBne, isa.OpBne,
		opAluStep, isa.OpShli, isa.OpXor,
		opSubiImmBne, opImmBne, isa.OpBne,
		opAluStep, isa.OpShli, isa.OpXor,
		opSubiImmBne, opImmBne, isa.OpBne,
		// The push retry, then a copy whose br goes to the first.
		opTxRetry, opImmBeq, isa.OpBeq, isa.OpCtx, isa.OpBr,
		isa.OpTxPush, opImmBeq, isa.OpBeq, isa.OpCtx, isa.OpBr,
		isa.OpRxPop, isa.OpImm,
		isa.OpAddi, isa.OpShli,
	}
	if len(want) != len(prog.Code) {
		t.Fatalf("want %d tags for %d instructions", len(want), len(prog.Code))
	}
	code := predecode(prog)
	for i, in := range code {
		if in.op != want[i] {
			t.Errorf("code[%d] (%s) tagged %d, want %d", i, prog.Code[i], in.op, want[i])
		}
		orig := prog.Code[i]
		if in.rd != orig.Rd || in.ra != orig.Ra || in.rb != orig.Rb || in.imm != orig.Imm || in.target != orig.Target {
			t.Errorf("code[%d] operands changed by fusion", i)
		}
	}
	// Every benchmark's receive poll, push retry and ALU loop, and the
	// transmit poll and ALU loop, are fused, so a workload edit cannot
	// drop a fast path unnoticed.
	p := workload.DefaultParams()
	tx, err := workload.TxProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	type tagged struct {
		prog *isa.Program
		tags map[string]isa.Op // label → the op its head must carry
	}
	heads := []tagged{{tx, map[string]isa.Op{"main": opTxPoll, "stage": opAluLoop}}}
	aluLabels := map[workload.Name]string{workload.IPFwdr: "cksum", workload.URL: "scan", workload.NAT: "rewrite"}
	for _, bench := range workload.All {
		prog, err := workload.Program(bench, p)
		if err != nil {
			t.Fatal(err)
		}
		tags := map[string]isa.Op{"main": opRxPoll, "push": opTxRetry}
		if l, ok := aluLabels[bench]; ok {
			tags[l] = opAluLoop
		}
		heads = append(heads, tagged{prog, tags})
	}
	for _, h := range heads {
		code := predecode(h.prog)
		for label, op := range h.tags {
			pc, ok := h.prog.Labels[label]
			if !ok {
				t.Errorf("%s: no label %q", h.prog.Name, label)
				continue
			}
			if got := code[pc].op; got != op {
				t.Errorf("%s %s: tagged %d, want %d", h.prog.Name, label, got, op)
			}
		}
	}
}
