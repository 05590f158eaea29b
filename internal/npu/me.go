package npu

import (
	"fmt"
	"math/bits"

	"nepdvs/internal/isa"
	"nepdvs/internal/power"
	"nepdvs/internal/sim"
)

// context is one of an ME's hardware thread contexts. Its scheduling
// state is its bit in the ME's ready, live and memWait masks.
type context struct {
	pc   int
	regs [isa.NumRegs]int64
	// ref is the context's one reference in flight, held from the issuing
	// instruction until its issue event fires: a request for mc, or, for a
	// send (not in memWait), the packet handle in ref.addr.
	ref memRequest
	mc  *memController
}

// dinstr is one predecoded instruction: the fields the interpreter reads,
// with the issue cost resolved, in 24 bytes instead of isa.Instr's 40.
type dinstr struct {
	imm        int64
	cycles     int64
	target     int32
	op         isa.Op
	rd, ra, rb uint8
}

// Superinstructions: npu-private opcodes, above the ISA's range, that
// predecode puts on the head of a hot instruction sequence. The members
// keep their own entries in the code, so the fused handler reads their
// operands from the entries that follow the head, and a branch into the
// middle of a sequence runs the members on their own.
const (
	opImmBeq     = isa.OpCsr + 1 + iota // imm; beq
	opImmBne                            // imm; bne
	opSubiImmBne                        // subi; imm; bne: the counted-loop tail
	opRxPoll                            // rx.pop; imm; beq: the receive poll
	opTxPoll                            // tx.pop; imm; beq: the transmit-ring poll
	opAluLoop                           // the whole counted ALU self-loop, see aluSelfLoop
	opAluStep                           // addi; shli; xor: the shared ALU-loop body
	opTxRetry                           // tx.push; imm; beq; ctx; br: the push-retry spin
)

// predecode lowers a program into the interpreter's compact form and tags
// the head of every superinstruction sequence with its fused opcode. The
// first matching row wins; a row with a shape predicate also needs its
// members' operands to pass it.
func predecode(prog *isa.Program) []dinstr {
	fusions := []struct {
		seq   []isa.Op
		op    isa.Op
		shape func(seq []isa.Instr, head int) bool
	}{
		{[]isa.Op{isa.OpAddi, isa.OpShli, isa.OpXor, isa.OpSubi, isa.OpImm, isa.OpBne}, opAluLoop, aluSelfLoop},
		{[]isa.Op{isa.OpTxPush, isa.OpImm, isa.OpBeq, isa.OpCtx, isa.OpBr}, opTxRetry, pushRetry},
		{[]isa.Op{isa.OpImm, isa.OpBeq}, opImmBeq, nil},
		{[]isa.Op{isa.OpImm, isa.OpBne}, opImmBne, nil},
		{[]isa.Op{isa.OpSubi, isa.OpImm, isa.OpBne}, opSubiImmBne, nil},
		{[]isa.Op{isa.OpRxPop, isa.OpImm, isa.OpBeq}, opRxPoll, nil},
		{[]isa.Op{isa.OpTxPop, isa.OpImm, isa.OpBeq}, opTxPoll, nil},
		{[]isa.Op{isa.OpAddi, isa.OpShli, isa.OpXor}, opAluStep, nil},
	}
	code := make([]dinstr, len(prog.Code))
	for i, in := range prog.Code {
		code[i] = dinstr{
			imm: in.Imm, cycles: in.Op.Cycles(), target: in.Target,
			op: in.Op, rd: in.Rd, ra: in.Ra, rb: in.Rb,
		}
	next:
		for _, f := range fusions {
			if i+len(f.seq) > len(prog.Code) {
				continue
			}
			for j, op := range f.seq {
				if prog.Code[i+j].Op != op {
					continue next
				}
			}
			if f.shape != nil && !f.shape(prog.Code[i:i+len(f.seq)], i) {
				continue
			}
			code[i].op = f.op
			break
		}
	}
	return code
}

// aluSelfLoop accepts the counted ALU loop workload.aluLoop emits,
//
//	head: addi rX, rX, c; shli rY, rX, s; xor rX, rX, rY
//	      subi rC, rC, d; imm rZ, v; bne rC, rZ, head
//
// with rX, rY, rC and rZ pairwise distinct, so that an iteration is four
// independent register updates and one exit test on rC.
func aluSelfLoop(s []isa.Instr, head int) bool {
	x, y, c, z := s[0].Rd, s[1].Rd, s[3].Rd, s[4].Rd
	return s[0].Ra == x && s[1].Ra == x && s[2].Rd == x && s[2].Ra == x && s[2].Rb == y &&
		s[3].Ra == c && s[5].Ra == c && s[5].Rb == z && int(s[5].Target) == head &&
		x != y && x != c && x != z && y != c && y != z && c != z
}

// pushRetry accepts the transmit retry of the receive skeleton: the br
// after the ctx goes back to the tx.push, so a context whose push failed
// starts its next turn on the br.
func pushRetry(s []isa.Instr, head int) bool {
	return int(s[4].Target) == head
}

// noTime marks "no pending idle timestamp".
const noTime = sim.Time(-1)

// ME is one microengine: an interpreter over the assembled microcode with
// IXP-style zero-cost context swapping on memory references.
type ME struct {
	chip *Chip
	idx  int
	code []dinstr

	// stepFn is the step method value, wakeFns[ci] wakes context ci and
	// issueFns[ci] delivers its reference in flight, all bound once so
	// that scheduling them allocates nothing.
	stepFn   sim.Handler
	wakeFns  []sim.Handler
	issueFns []sim.Handler

	// Timeline track names, precomputed so span recording allocates
	// nothing per event: execution/idle residency on track, VF stalls and
	// transitions on vfTrack, the clock series under mhzCounter.
	track      string
	vfTrack    string
	mhzCounter string

	vf     power.VF
	period sim.Time

	ctxs []context
	cur  int // running context, or -1

	// Context state, one bit per context (NumCtx <= 8). A live context
	// has not halted; a live context that is not ready is blocked, on
	// memory if its memWait bit is set and on the transmit path if not.
	// The paper's idle definition (§4.2) is specific: "If all the threads
	// in an ME are waiting for memory accesses to be completed, we
	// consider the ME idle." A context waiting on a transmit FIFO
	// therefore does NOT make its ME idle — that is the paper's
	// "transmission constrained" state, and it is why the transmitting MEs
	// never trip the EDVS idle threshold.
	ready, live, memWait uint8

	// Idle accounting. idleFrom is the (possibly future) time the ME ran
	// out of ready contexts; it is settled on wake. Stall time is kept
	// separate so EDVS does not feed on its own penalties.
	idleFrom   sim.Time
	idleTotal  sim.Time
	stallUntil sim.Time
	stallTotal sim.Time

	// DPM sleep state (below the VF ladder): 0 awake, 1 sleep (clock-gated,
	// state retained), 2 deep sleep (power-gated). While asleep the ME
	// executes nothing and accrues sleep — not idle — time; waking pays a
	// depth-scaled transition penalty through the stall machinery.
	sleepDepth int
	sleepFrom  sim.Time
	sleepTotal sim.Time
	deepTotal  sim.Time
	sleepWakes uint64

	stepPending bool

	// statistics
	instrCount  uint64
	memRefs     uint64
	vfChanges   uint64
	pollCycles  uint64
	ctxBlocks   uint64   // context-blocking events (memory, unit or transmit)
	stallCycles uint64   // cycles paid to DVS transition penalties
	busyTime    sim.Time // time spent issuing instructions
}

func newME(chip *Chip, idx int, prog *isa.Program, vf power.VF) *ME {
	me := &ME{
		chip: chip, idx: idx, code: predecode(prog), vf: vf,
		ctxs: make([]context, chip.cfg.NumCtx),
		cur:  -1, idleFrom: noTime,
	}
	me.live = uint8(1<<len(me.ctxs) - 1)
	me.ready = me.live
	me.stepFn = me.step
	me.wakeFns = make([]sim.Handler, len(me.ctxs))
	me.issueFns = make([]sim.Handler, len(me.ctxs))
	for ci := range me.wakeFns {
		me.wakeFns[ci] = func() { me.wake(ci) }
		me.issueFns[ci] = func() { me.issue(ci) }
	}
	me.track = fmt.Sprintf("me%d", idx)
	me.vfTrack = fmt.Sprintf("me%d vf", idx)
	me.mhzCounter = fmt.Sprintf("me%d_mhz", idx)
	me.period = sim.NewClock(vf.MHz).Period()
	return me
}

// IdleTime returns cumulative idle time (all contexts blocked), excluding
// DVS stall time, settled up to the current simulation time.
func (me *ME) IdleTime() sim.Time {
	t := me.idleTotal
	if now := me.chip.k.Now(); me.idleFrom != noTime && now > me.idleFrom {
		t += now - me.idleFrom
	}
	return t
}

// StallTime returns cumulative DVS-transition stall time.
func (me *ME) StallTime() sim.Time { return me.stallTotal }

// SleepTime returns cumulative time spent in any sleep state, settled up to
// the current simulation time.
func (me *ME) SleepTime() sim.Time {
	t := me.sleepTotal
	if now := me.chip.k.Now(); me.sleepDepth > 0 && now > me.sleepFrom {
		t += now - me.sleepFrom
	}
	return t
}

// DeepSleepTime returns the cumulative deep-sleep share of SleepTime.
func (me *ME) DeepSleepTime() sim.Time {
	t := me.deepTotal
	if now := me.chip.k.Now(); me.sleepDepth == 2 && now > me.sleepFrom {
		t += now - me.sleepFrom
	}
	return t
}

// SleepWakes returns how many sleep→awake transitions this ME has paid for.
func (me *ME) SleepWakes() uint64 { return me.sleepWakes }

// InstrCount returns executed instruction count.
func (me *ME) InstrCount() uint64 { return me.instrCount }

// BusyTime returns cumulative time the ME spent issuing instructions
// (batches × cycles × period); the remainder is ready-waiting, blocked or
// stalled time.
func (me *ME) BusyTime() sim.Time { return me.busyTime }

// MemRefs returns the number of memory/unit references issued.
func (me *ME) MemRefs() uint64 { return me.memRefs }

// VFChanges returns the number of DVS transitions applied to this ME.
func (me *ME) VFChanges() uint64 { return me.vfChanges }

// CtxBlocks returns how many times one of this ME's contexts blocked on a
// memory reference, fixed-latency unit or the transmit path.
func (me *ME) CtxBlocks() uint64 { return me.ctxBlocks }

// StallCycles returns the cumulative cycles paid to DVS transition
// penalties, counted at the post-transition clock.
func (me *ME) StallCycles() uint64 { return me.stallCycles }

// PollCycles returns how many rx.pop polls this ME issued.
func (me *ME) PollCycles() uint64 { return me.pollCycles }

// setVF applies a DVS transition: the ME stalls for the configured penalty
// and resumes at the new operating point.
func (me *ME) setVF(vf power.VF) {
	if vf == me.vf {
		return
	}
	now := me.chip.k.Now()
	me.vf = vf
	me.period = sim.NewClock(vf.MHz).Period()
	me.vfChanges++
	penalty := me.chip.cfg.DVSPenalty
	until := now + penalty
	if until > me.stallUntil {
		// Settle any idle period: stall supersedes idle.
		me.settleIdle(now)
		stallFrom := now
		if me.stallUntil > now {
			me.stallTotal += until - me.stallUntil
			stallFrom = me.stallUntil
		} else {
			me.stallTotal += penalty
		}
		if r := me.chip.spans; r != nil {
			// Only the window extension is new stall time, so back-to-back
			// transitions merge into one contiguous stall span.
			r.Span(me.vfTrack, "stall", "dvs", stallFrom, until, nil)
		}
		me.stallUntil = until
	}
	if r := me.chip.spans; r != nil {
		r.Instant(me.vfTrack, "vfchange", "dvs", now, map[string]float64{"mhz": vf.MHz, "volts": vf.Volts})
		r.Counter(me.vfTrack, me.mhzCounter, now, vf.MHz)
	}
	stallCycles := sim.NewClock(vf.MHz).CyclesIn(penalty)
	me.stallCycles += uint64(stallCycles)
	me.chip.meter.StallCycles(stallCycles, vf)
	me.chip.emitVFChange(me.idx, vf)
	// Ensure execution resumes after the stall even if everything was
	// quiescent.
	me.scheduleStep(until)
}

func (me *ME) settleIdle(now sim.Time) {
	if me.idleFrom != noTime {
		if now > me.idleFrom {
			me.idleTotal += now - me.idleFrom
			if r := me.chip.spans; r != nil {
				r.Span(me.track, "idle", "me", me.idleFrom, now, nil)
			}
		}
		me.idleFrom = noTime
	}
}

// setSleep moves the ME to DPM state depth (0 awake, 1 sleep, 2 deep
// sleep). Entering or deepening is instantaneous — the controller gates the
// clock at a window boundary — but waking stalls the ME for DVSPenalty
// scaled by the depth it wakes from, charged through the same stall
// machinery as a VF transition.
func (me *ME) setSleep(depth int) {
	if depth < 0 {
		depth = 0
	}
	if depth > 2 {
		depth = 2
	}
	if depth == me.sleepDepth {
		return
	}
	now := me.chip.k.Now()
	if me.sleepDepth == 0 {
		// Entering sleep: idle stops accruing (sleep supersedes idle).
		me.settleIdle(now)
		me.sleepFrom = now
	} else {
		me.settleSleep(now)
	}
	prev := me.sleepDepth
	me.sleepDepth = depth
	if r := me.chip.spans; r != nil {
		r.Instant(me.vfTrack, "sleepchange", "dvs", now, map[string]float64{
			"from": float64(prev), "to": float64(depth),
		})
	}
	if depth != 0 {
		return
	}
	// Wake: pay the depth-scaled latency before executing again.
	me.sleepWakes++
	penalty := me.chip.cfg.DVSPenalty * sim.Time(prev)
	until := now + penalty
	if until > me.stallUntil {
		stallFrom := now
		if me.stallUntil > now {
			me.stallTotal += until - me.stallUntil
			stallFrom = me.stallUntil
		} else {
			me.stallTotal += penalty
		}
		if r := me.chip.spans; r != nil {
			r.Span(me.vfTrack, "stall", "dvs", stallFrom, until, nil)
		}
		me.stallUntil = until
	}
	stallCycles := sim.NewClock(me.vf.MHz).CyclesIn(penalty)
	me.stallCycles += uint64(stallCycles)
	me.chip.meter.StallCycles(stallCycles, me.vf)
	me.scheduleStep(until)
}

// settleSleep accrues the open sleep segment [sleepFrom, now): residency
// totals, retention energy for depth-1 segments (deep sleep is power-gated
// and charges nothing), and the timeline span.
func (me *ME) settleSleep(now sim.Time) {
	if me.sleepDepth == 0 || now <= me.sleepFrom {
		return
	}
	seg := now - me.sleepFrom
	me.sleepTotal += seg
	name := "sleep"
	if me.sleepDepth == 2 {
		me.deepTotal += seg
		name = "deep_sleep"
	} else {
		me.chip.meter.SleepCycles(sim.NewClock(me.vf.MHz).CyclesIn(seg), me.vf)
	}
	if r := me.chip.spans; r != nil {
		r.Span(me.vfTrack, name, "dvs", me.sleepFrom, now, nil)
	}
	me.sleepFrom = now
}

// scheduleStep arranges a step event no earlier than at (and never inside a
// stall window). Only one step is ever pending.
func (me *ME) scheduleStep(at sim.Time) {
	if me.stepPending {
		return
	}
	now := me.chip.k.Now()
	if at < now {
		at = now
	}
	if at < me.stallUntil {
		at = me.stallUntil
	}
	me.stepPending = true
	me.chip.k.Schedule(at, me.stepFn)
}

// wake marks a context ready (memory completion or FIFO grant).
func (me *ME) wake(ci int) {
	bit := uint8(1) << ci
	if me.live&^me.ready&bit == 0 {
		panic(fmt.Sprintf("npu: me%d ctx%d woken while not blocked", me.idx, ci))
	}
	me.ready |= bit
	me.memWait &^= bit
	if me.stepPending {
		return
	}
	now := me.chip.k.Now()
	resume := now
	if me.idleFrom != noTime && me.idleFrom > now {
		// The ME is still logically executing its last batch; resume when
		// it ends.
		resume = me.idleFrom
	}
	me.settleIdle(now)
	me.scheduleStep(resume)
}

// pickReady selects the next ready context round-robin after cur, or -1.
func (me *ME) pickReady() int {
	if me.ready == 0 {
		return -1
	}
	from := uint(me.cur + 1)
	if after := uint(me.ready) >> from; after != 0 {
		return int(from) + bits.TrailingZeros(after)
	}
	return bits.TrailingZeros8(me.ready)
}

// step executes one instruction batch. It is the only place microcode runs.
func (me *ME) step() {
	me.stepPending = false
	if me.sleepDepth > 0 {
		// Asleep: nothing executes. Memory completions still mark their
		// contexts ready; the wake transition reschedules execution.
		return
	}
	now := me.chip.k.Now()
	if now < me.stallUntil {
		me.scheduleStep(me.stallUntil)
		return
	}
	if me.cur < 0 || me.ready>>me.cur&1 == 0 {
		me.cur = me.pickReady()
	}
	if me.cur < 0 {
		if me.liveContexts() == 0 {
			return // all halted; nothing more to do
		}
		if me.idleFrom == noTime && me.allBlockedOnMemory() {
			me.idleFrom = now
		}
		return
	}

	// The running context's pc and register file stay in locals for the
	// whole batch. They are written back, and reloaded from the next
	// context, only when an op ends the context's turn and at batch end.
	code := me.code
	period := me.period
	ctx := &me.ctxs[me.cur]
	pc := ctx.pc
	regs := &ctx.regs
	var cycles, instrs int64
	batchCap := me.chip.cfg.BatchCycles
	// Round fixed point of the push-retry spin (see opTxRetry): where and
	// at which counts the running context's turn began, whether opTxRetry
	// found the turn to be a fixed point, how many such turns ran in a row
	// and the counts at the start of the first of them.
	turnPC, turnCycles, turnInstrs := pc, cycles, instrs
	fixed := false
	spin := 0
	var roundCycles, roundInstrs int64
	for cycles < batchCap {
		in := &code[pc]
		cycles += in.cycles
		instrs++
		switch in.op {
		case isa.OpNop:
			pc++
			continue
		case isa.OpImm:
			regs[in.rd] = in.imm
			pc++
			continue
		case isa.OpMov:
			regs[in.rd] = regs[in.ra]
			pc++
			continue
		case isa.OpAdd:
			regs[in.rd] = regs[in.ra] + regs[in.rb]
			pc++
			continue
		case isa.OpSub:
			regs[in.rd] = regs[in.ra] - regs[in.rb]
			pc++
			continue
		case isa.OpAnd:
			regs[in.rd] = regs[in.ra] & regs[in.rb]
			pc++
			continue
		case isa.OpOr:
			regs[in.rd] = regs[in.ra] | regs[in.rb]
			pc++
			continue
		case isa.OpXor:
			regs[in.rd] = regs[in.ra] ^ regs[in.rb]
			pc++
			continue
		case isa.OpShl:
			regs[in.rd] = regs[in.ra] << uint64(regs[in.rb]&63)
			pc++
			continue
		case isa.OpShr:
			regs[in.rd] = int64(uint64(regs[in.ra]) >> uint64(regs[in.rb]&63))
			pc++
			continue
		case isa.OpMul:
			regs[in.rd] = regs[in.ra] * regs[in.rb]
			pc++
			continue
		case isa.OpAddi:
			regs[in.rd] = regs[in.ra] + in.imm
			pc++
			continue
		case isa.OpSubi:
			regs[in.rd] = regs[in.ra] - in.imm
			pc++
			continue
		case isa.OpAndi:
			regs[in.rd] = regs[in.ra] & in.imm
			pc++
			continue
		case isa.OpShli:
			regs[in.rd] = regs[in.ra] << uint64(in.imm&63)
			pc++
			continue
		case isa.OpShri:
			regs[in.rd] = int64(uint64(regs[in.ra]) >> uint64(in.imm&63))
			pc++
			continue
		case isa.OpHash:
			regs[in.rd] = hash64(regs[in.ra])
			pc++
			continue
		case isa.OpBr:
			pc = int(in.target)
			continue
		case isa.OpBeq:
			pc = branch(pc, regs[in.ra] == regs[in.rb], in)
			continue
		case isa.OpBne:
			pc = branch(pc, regs[in.ra] != regs[in.rb], in)
			continue
		case isa.OpBlt:
			pc = branch(pc, regs[in.ra] < regs[in.rb], in)
			continue
		case isa.OpBge:
			pc = branch(pc, regs[in.ra] >= regs[in.rb], in)
			continue
		case isa.OpRxPop:
			regs[in.rd] = me.chip.rfifoPop()
			me.pollCycles++
			pc++
			continue
		case isa.OpTxPush:
			if me.chip.txRingPush(regs[in.ra]) {
				regs[in.rd] = 0
			} else {
				regs[in.rd] = 1
			}
			pc++
			continue
		case isa.OpTxPop:
			regs[in.rd] = me.chip.txRingPop()
			pc++
			continue
		case isa.OpPktF:
			regs[in.rd] = me.chip.pktField(regs[in.ra], isa.PktField(in.imm), me.idx, pc)
			pc++
			continue

		// Superinstructions. Each member retires as its own instruction
		// and the batch cap is checked after every member, so a batch
		// ends with pc on the next member exactly where the unfused
		// sequence would have ended it.
		case opImmBeq:
			regs[in.rd] = in.imm
			pc++
			if cycles >= batchCap {
				continue
			}
			b := &code[pc]
			cycles += b.cycles
			instrs++
			pc = branch(pc, regs[b.ra] == regs[b.rb], b)
			continue
		case opImmBne:
			regs[in.rd] = in.imm
			pc++
			if cycles >= batchCap {
				continue
			}
			b := &code[pc]
			cycles += b.cycles
			instrs++
			pc = branch(pc, regs[b.ra] != regs[b.rb], b)
			continue
		case opSubiImmBne:
			regs[in.rd] = regs[in.ra] - in.imm
			pc++
			if cycles >= batchCap {
				continue
			}
			m := &code[pc]
			cycles += m.cycles
			instrs++
			regs[m.rd] = m.imm
			pc++
			if cycles >= batchCap {
				continue
			}
			b := &code[pc]
			cycles += b.cycles
			instrs++
			pc = branch(pc, regs[b.ra] != regs[b.rb], b)
			continue
		case opAluLoop:
			// The whole counted loop, while whole iterations fit below the
			// cap. An iteration is whole when its bne starts below the
			// cap, that is when it starts at or before last. The exit test
			// runs after every iteration, as the bne would. aluSelfLoop
			// keeps rX, rY, rC and rZ distinct, so they live in locals and
			// are written back once.
			sh, sb, im, bn := &code[pc+1], &code[pc+3], &code[pc+4], &code[pc+5]
			iter := in.cycles + sh.cycles + code[pc+2].cycles + sb.cycles + im.cycles + bn.cycles
			last := batchCap - 1 + bn.cycles - iter
			if start := cycles - in.cycles; start <= last {
				cycles, instrs = start, instrs-1
				x, y, c := regs[in.rd], int64(0), regs[sb.rd]
				add, shift, dec, exit := in.imm, uint64(sh.imm), sb.imm, im.imm
				for {
					x += add
					y = x << (shift & 63)
					x ^= y
					c -= dec
					cycles += iter
					instrs += 6
					if c == exit {
						pc += 6
						break
					}
					if cycles > last {
						break
					}
				}
				regs[in.rd], regs[sh.rd], regs[sb.rd], regs[im.rd] = x, y, c, exit
				continue
			}
			// Not one whole iteration fits: run the members one at a time.
			fallthrough
		case opAluStep:
			regs[in.rd] = regs[in.ra] + in.imm
			pc++
			if cycles >= batchCap {
				continue
			}
			m := &code[pc]
			cycles += m.cycles
			instrs++
			regs[m.rd] = regs[m.ra] << uint64(m.imm&63)
			pc++
			if cycles >= batchCap {
				continue
			}
			m = &code[pc]
			cycles += m.cycles
			instrs++
			regs[m.rd] = regs[m.ra] ^ regs[m.rb]
			pc++
			continue
		case opRxPoll, opTxPoll:
			var h int64
			if in.op == opRxPoll {
				h = me.chip.rfifoPop()
				me.pollCycles++
			} else {
				h = me.chip.txRingPop()
			}
			regs[in.rd] = h
			head := pc
			pc++
			if cycles >= batchCap {
				continue
			}
			m := &code[pc]
			cycles += m.cycles
			instrs++
			regs[m.rd] = m.imm
			pc++
			if cycles >= batchCap {
				continue
			}
			b := &code[pc]
			cycles += b.cycles
			instrs++
			pc = branch(pc, regs[b.ra] == regs[b.rb], b)
			if h == -1 && pc == head {
				// Empty-poll fixed point. Nothing else runs inside a
				// batch, so the queue stays empty, and a further
				// iteration would write the two registers with the
				// values they now hold and branch back here again:
				// every later iteration of this batch is this one. Skip
				// the whole iterations that fit below the cap in O(1).
				// The branch costs one cycle, so an iteration is whole
				// exactly when all its cycles fit; the partial tail
				// runs normally.
				iter := in.cycles + m.cycles + b.cycles
				k := (batchCap - cycles) / iter
				cycles += k * iter
				instrs += 3 * k
				if in.op == opRxPoll {
					me.pollCycles += uint64(k)
				}
			}
			continue
		case opTxRetry:
			m, b := &code[pc+1], &code[pc+2]
			head := pc
			oldD, oldM := regs[in.rd], regs[m.rd]
			pushed := me.chip.txRingPush(regs[in.ra])
			if pushed {
				regs[in.rd] = 0
			} else {
				regs[in.rd] = 1
			}
			pc++
			if cycles >= batchCap {
				continue
			}
			cycles += m.cycles
			instrs++
			regs[m.rd] = m.imm
			pc++
			if cycles >= batchCap {
				continue
			}
			cycles += b.cycles
			instrs++
			pc = branch(pc, regs[b.ra] == regs[b.rb], b)
			// The turn is a fixed point if it began on the retry's br, so
			// that it is br; tx.push; imm; beq and then the ctx at pc,
			// which ends it where it began; if the push, its only access
			// to shared state, failed; and if it left both registers it
			// wrote as they were. The ctx turn end counts such turns.
			fixed = !pushed && pc == head+3 && turnPC == head+4 && instrs == turnInstrs+4 &&
				regs[in.rd] == oldD && regs[m.rd] == oldM
			continue

		// The ops below end the context's turn.
		case isa.OpHalt:
			me.live &^= 1 << me.cur
			me.ready &^= 1 << me.cur
		case isa.OpCtx:
			pc++
		case isa.OpScrR:
			regs[in.rd] = me.chip.scratchRead(regs[in.ra])
			pc++
			me.blockOn(now+sim.Time(cycles)*period, me.chip.scratchDelay(), 1, scratchUnit)
		case isa.OpScrW:
			me.chip.scratchWrite(regs[in.ra], regs[in.rb])
			pc++
			me.blockOn(now+sim.Time(cycles)*period, me.chip.scratchDelay(), 1, scratchUnit)
		case isa.OpCsr:
			regs[in.rd] = hash64(regs[in.ra] ^ int64(me.idx))
			pc++
			me.blockOn(now+sim.Time(cycles)*period, me.chip.csrDelay(), 0, csrUnit)
		case isa.OpSramR:
			regs[in.rd] = hash64(regs[in.ra])
			pc++
			me.issueMem(now+sim.Time(cycles)*period, me.chip.sram, regs[in.ra], in.imm, false, sramUnit)
		case isa.OpSramW:
			pc++
			me.issueMem(now+sim.Time(cycles)*period, me.chip.sram, regs[in.ra], in.imm, true, sramUnit)
		case isa.OpSdramR:
			regs[in.rd] = hash64(regs[in.ra] + 1)
			pc++
			me.issueMem(now+sim.Time(cycles)*period, me.chip.sdram, regs[in.ra], in.imm, false, sdramUnit)
		case isa.OpSdramW:
			pc++
			me.issueMem(now+sim.Time(cycles)*period, me.chip.sdram, regs[in.ra], in.imm, true, sdramUnit)
		case isa.OpSend:
			pc++
			me.blockForSend(now+sim.Time(cycles)*period, regs[in.ra])
		default:
			panic(fmt.Sprintf("npu: me%d: unimplemented opcode %v", me.idx, in.op))
		}
		ctx.pc = pc
		// Swap to the next ready context. After a ctx, a voluntary swap,
		// there is one: the context that yielded stays ready.
		if me.cur = me.pickReady(); me.cur < 0 {
			break
		}
		if in.op != isa.OpCtx || !fixed {
			spin = 0
		} else {
			if spin == 0 {
				roundCycles, roundInstrs = turnCycles, turnInstrs
			}
			if spin++; spin == me.readyCount() {
				// Round fixed point. Every ready context has just had
				// a fixed-point turn, in round-robin order, and nothing
				// else runs inside a batch: the ring cannot drain and
				// no context can wake, so every later round of this
				// batch repeats this one. Round j is whole when its
				// last instruction, this ctx, starts below the cap;
				// skip the k whole rounds in O(1). The partial tail
				// runs normally.
				if rem := batchCap - cycles; rem > 0 {
					round, roundN := cycles-roundCycles, instrs-roundInstrs
					k := (rem - 1 + in.cycles) / round
					cycles += k * round
					instrs += k * roundN
				}
				spin = 0
			}
			fixed = false
		}
		ctx = &me.ctxs[me.cur]
		pc = ctx.pc
		regs = &ctx.regs
		turnPC, turnCycles, turnInstrs = pc, cycles, instrs
	}
	ctx.pc = pc

	me.instrCount += uint64(instrs)
	me.chip.meter.Instr(instrs, me.vf)
	end := now + sim.Time(cycles)*me.period
	me.busyTime += sim.Time(cycles) * me.period
	if r := me.chip.spans; r != nil {
		// Contiguous batches merge in the recorder, so a busy stretch
		// renders as one "exec" interval.
		r.Span(me.track, "exec", "me", now, end, nil)
	}
	me.chip.emitPipeline(me.idx, instrs)

	// Rotate among ready contexts at batch boundaries (pickReady scans
	// round-robin from cur+1, falling back to cur itself). Without this a
	// polling context would hog the pipeline and starve a context whose
	// memory reference completed — the hardware's context arbiter gives
	// every ready context a turn.
	if ci := me.pickReady(); ci >= 0 {
		me.cur = ci
		me.scheduleStep(end)
		return
	}
	me.cur = -1
	if me.liveContexts() > 0 && me.allBlockedOnMemory() {
		// All contexts are waiting on memory: the ME goes idle (in the
		// paper's sense) when the batch drains.
		me.idleFrom = end
	}
}

// allBlockedOnMemory reports whether every live context is blocked on a
// memory reference — the paper's idle condition. A context waiting on the
// transmit path keeps the ME "transmission constrained", not idle.
func (me *ME) allBlockedOnMemory() bool { return me.memWait == me.live }

func branch(pc int, taken bool, in *dinstr) int {
	if taken {
		return int(in.target)
	}
	return pc + 1
}

func (me *ME) readyCount() int { return bits.OnesCount8(me.ready) }

func (me *ME) liveContexts() int { return bits.OnesCount8(me.live) }

// memory unit tags for energy accounting.
type memUnit uint8

const (
	sramUnit memUnit = iota
	sdramUnit
	scratchUnit
	csrUnit
)

// issueMem sends a reference to a queueing controller and blocks the
// current context until completion.
func (me *ME) issueMem(issueAt sim.Time, mc *memController, addr, words int64, write bool, unit memUnit) {
	if words < 1 {
		words = 1
	}
	ci := me.cur
	me.block(ci, true)
	me.memRefs++
	me.chip.chargeMem(unit, words)
	c := &me.ctxs[ci]
	c.ref = memRequest{addr: addr, words: words, write: write, done: me.wakeFns[ci]}
	c.mc = mc
	me.chip.k.Schedule(issueAt, me.issueFns[ci])
}

// issue delivers context ci's reference in flight at its issue time: the
// packet to the egress path for a send, else the request to its memory
// controller.
func (me *ME) issue(ci int) {
	c := &me.ctxs[ci]
	if me.memWait>>ci&1 == 0 {
		me.chip.sendPacket(c.ref.addr, me.idx, me.wakeFns[ci])
		return
	}
	c.mc.request(c.ref)
}

// blockOn blocks the current context for a fixed-latency unit access.
func (me *ME) blockOn(issueAt sim.Time, latency sim.Time, words int64, unit memUnit) {
	ci := me.cur
	me.block(ci, true)
	me.memRefs++
	if words > 0 {
		me.chip.chargeMem(unit, words)
	}
	me.chip.k.Schedule(issueAt+latency, me.wakeFns[ci])
}

// blockForSend hands a packet to the egress machinery; the context wakes
// when the TFIFO accepts it.
func (me *ME) blockForSend(issueAt sim.Time, handle int64) {
	ci := me.cur
	me.block(ci, false)
	me.ctxs[ci].ref = memRequest{addr: handle}
	me.chip.k.Schedule(issueAt, me.issueFns[ci])
}

// block takes context ci out of the ready set, waiting on memory or, if
// not memory, on the transmit path.
func (me *ME) block(ci int, memory bool) {
	bit := uint8(1) << ci
	me.ready &^= bit
	if memory {
		me.memWait |= bit
	}
	me.ctxBlocks++
}

// hash64 is the deterministic pseudo-data function standing in for memory
// contents and the IXP hash unit.
func hash64(v int64) int64 {
	x := uint64(v) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return int64(x & 0x7fffffffffffffff)
}
