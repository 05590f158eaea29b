package npu

import (
	"fmt"

	"nepdvs/internal/isa"
	"nepdvs/internal/power"
	"nepdvs/internal/sim"
	"nepdvs/internal/span"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
)

// pktState tracks a packet through the chip.
type pktState uint8

const (
	pktArriving pktState = iota
	pktQueued
	pktProcessing
	pktSent
	pktDropped
)

// pktDesc is the descriptor table entry for one packet.
type pktDesc struct {
	pkt    traffic.Packet
	state  pktState
	egress int
}

// Chip is the assembled NPU model. Build with New, load packet arrivals
// with Inject, then drive the kernel.
type Chip struct {
	cfg   Config
	k     *sim.Kernel
	meter *power.Meter
	ref   sim.Clock

	sram    *memController
	sdram   *memController
	sdramTm *sdramTiming

	mes []*ME

	scratch map[int64]int64

	// packet path
	pkts     []pktDesc
	rfifo    fifo[int64]
	txRing   fifo[int64]
	busFree  sim.Time
	portFree []sim.Time
	// busQ holds the handles crossing the IX bus and txQ[port] those on
	// the wire at each port, in start order. busFree and portFree only
	// move forward, so transfers finish in start order too, and one
	// handler bound once per queue (deliverFn, txDoneFns[port]) pops the
	// handle each completion belongs to.
	busQ      fifo[int64]
	deliverFn sim.Handler
	txQ       []fifo[int64]
	txDoneFns []sim.Handler
	// tfifoUsed counts occupied TFIFO slots per egress port; waiters queue
	// contexts blocked on a full TFIFO.
	tfifoUsed []int
	waiters   []fifo[waiter]
	// arrivals is the injected stream (see Inject): arrival i fires under
	// kernel sequence number arrivalSeq+i, and arriveFn, bound once, is
	// the handler of every arrival. nextArrival indexes the next to fire.
	arrivals    []traffic.Packet
	arrivalSeq  uint64
	nextArrival int
	arriveFn    sim.Handler

	// trace
	sink    trace.Sink
	sinkErr error
	// ev and extra are the emit scratch. The Sink contract makes an event
	// and its Extra map valid only during Emit, so one event and one
	// cleared map serve every emission; meNames holds each ME's event
	// names, built once.
	ev             trace.Event
	extra          map[string]float64
	meNames        []meEventNames
	lastBaseUpdate sim.Time
	idleTicker     *sim.Ticker
	lastIdleSample []sim.Time

	// spans is the optional timeline recorder (see SetSpans); nil on the
	// nominal path.
	spans *span.Recorder

	// faults is the optional fault-injection hook (see SetFaultInjector);
	// nil on the nominal path.
	faults FaultInjector

	// counters
	bitsArrived      uint64
	pktsArrived      uint64
	pktsQueued       uint64
	pktsDropped      uint64
	pktsSent         uint64
	bitsSent         uint64
	pktsFaultDropped uint64
	fifoHighWater    int
}

// waiter is a send blocked on a full TFIFO: the packet and the grant that
// wakes its context.
type waiter struct {
	handle  int64
	granted sim.Handler
}

// meEventNames are one ME's prefixed event names, e.g. "m2_pipeline".
type meEventNames struct{ pipeline, idle, vfchange string }

// FaultInjector is the chip's fault-injection surface, satisfied by
// *fault.Injector. Both hooks are queried on the simulation goroutine at
// well-defined points — memory-request service start and media-side packet
// arrival — so deterministic injectors yield deterministic runs.
type FaultInjector interface {
	// MemExtra returns extra service latency for a request starting at
	// time at on the named unit ("sram" or "sdram"); 0 means nominal.
	MemExtra(unit string, at sim.Time) sim.Time
	// PortFault decides the fate of a packet arriving on port at time at:
	// drop it, or defer its arrival until resume (0 = proceed now).
	PortFault(port int, at sim.Time) (resume sim.Time, drop bool)
}

// SetFaultInjector attaches a fault injector. Call before the simulation
// starts; a nil injector (the default) is the nominal, zero-overhead path.
func (c *Chip) SetFaultInjector(f FaultInjector) { c.faults = f }

// SetSpans attaches a timeline recorder: microengines record exec/idle
// residency and DVS stall spans, memory controllers record their service
// occupancy. Call before the simulation starts; every recorded value
// derives from simulation state only, so identical runs record identical
// streams. Nil (the default) is the zero-overhead path.
func (c *Chip) SetSpans(r *span.Recorder) {
	c.spans = r
	c.sram.spans = r
	c.sdram.spans = r
	if r != nil {
		// Seed the per-ME clock counters with the boot operating point so
		// the series starts at time zero.
		for _, me := range c.mes {
			r.Counter(me.vfTrack, me.mhzCounter, 0, me.vf.MHz)
		}
	}
}

// FlushSpans closes the spans still open at the current simulation time
// (an ME sitting idle at run end, for example). Call once after the kernel
// drains, before exporting.
func (c *Chip) FlushSpans() {
	if c.spans == nil {
		return
	}
	now := c.k.Now()
	for _, me := range c.mes {
		me.settleIdle(now)
		me.settleSleep(now)
	}
}

// New builds a chip. programs must have one entry per ME: indices
// [0, RxMEs) run the receive/processing code, the rest the transmit code.
// sink receives trace events (nil for no trace).
func New(cfg Config, k *sim.Kernel, programs []*isa.Program, sink trace.Sink) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(programs) != cfg.NumMEs {
		return nil, fmt.Errorf("npu: %d programs for %d MEs", len(programs), cfg.NumMEs)
	}
	for i, p := range programs {
		if p == nil || len(p.Code) == 0 {
			return nil, fmt.Errorf("npu: ME%d has no program", i)
		}
	}
	meter, err := power.NewMeter(cfg.Power)
	if err != nil {
		return nil, err
	}
	if sink == nil {
		sink = trace.DiscardSink{}
	}
	c := &Chip{
		cfg:       cfg,
		k:         k,
		meter:     meter,
		ref:       sim.NewClock(cfg.RefMHz),
		scratch:   make(map[int64]int64),
		portFree:  make([]sim.Time, cfg.Ports),
		tfifoUsed: make([]int, cfg.Ports),
		txQ:       make([]fifo[int64], cfg.Ports),
		txDoneFns: make([]sim.Handler, cfg.Ports),
		waiters:   make([]fifo[waiter], cfg.Ports),
		sink:      sink,
		extra:     make(map[string]float64, 2),
		meNames:   make([]meEventNames, cfg.NumMEs),
	}
	c.deliverFn = func() { c.rfifoPush(c.busQ.pop()) }
	for port := range c.txDoneFns {
		c.txDoneFns[port] = func() { c.txDone(port) }
	}
	for i := range c.meNames {
		c.meNames[i] = meEventNames{
			pipeline: trace.MEEvent(i, trace.EvPipeline),
			idle:     trace.MEEvent(i, trace.EvIdle),
			vfchange: trace.MEEvent(i, trace.EvVFChange),
		}
	}
	sramPipe := sim.Time(cfg.SramPipeNs * float64(sim.Nanosecond))
	sramWord := sim.Time(cfg.SramWordNs * float64(sim.Nanosecond))
	c.sram = newMemController(k, "sram", func(r memRequest) sim.Time {
		t := sramPipe + sim.Time(r.words)*sramWord
		if c.faults != nil {
			t += c.faults.MemExtra("sram", k.Now())
		}
		return t
	})
	c.sdramTm = newSdramTiming(cfg.SdramBanks, cfg.SdramRowNs, cfg.SdramWordNs)
	c.sdram = newMemController(k, "sdram", func(r memRequest) sim.Time {
		t := c.sdramTm.serviceTime(r)
		if c.faults != nil {
			t += c.faults.MemExtra("sdram", k.Now())
		}
		return t
	})
	for i := 0; i < cfg.NumMEs; i++ {
		c.mes = append(c.mes, newME(c, i, programs[i], cfg.MEVF))
	}
	if cfg.IdleSampleWindow > 0 {
		c.lastIdleSample = make([]sim.Time, cfg.NumMEs)
		c.idleTicker = sim.NewTicker(k, cfg.IdleSampleWindow, c.sampleIdle)
	}
	// Boot: the StrongARM core has loaded the control stores; enable MEs.
	for _, me := range c.mes {
		me.scheduleStep(0)
	}
	return c, nil
}

// Meter returns the power meter.
func (c *Chip) Meter() *power.Meter { return c.meter }

// SinkErr reports the first trace-sink failure, if any.
func (c *Chip) SinkErr() error { return c.sinkErr }

// Inject schedules the arrival of a packet stream at the device ports. The
// stream must be sorted by arrival time, and a chip takes one stream. It
// checks every packet first, so a rejected stream schedules nothing.
//
// Arrivals are streamed: Inject reserves one kernel sequence number per
// packet and schedules only the first arrival, and each arrival schedules
// the next under its reserved number. Ties with same-time events break
// exactly as if the whole stream had been scheduled up front, while the
// event queue holds one future arrival instead of the run's traffic. The
// chip keeps pkts until the run ends; the caller must not modify it.
func (c *Chip) Inject(pkts []traffic.Packet) error {
	if c.arriveFn != nil {
		return fmt.Errorf("npu: chip already has a packet stream")
	}
	for i, p := range pkts {
		if p.Port < 0 || p.Port >= c.cfg.Ports {
			return fmt.Errorf("npu: packet %d on port %d, chip has %d ports", p.ID, p.Port, c.cfg.Ports)
		}
		if i > 0 && p.Arrival < pkts[i-1].Arrival {
			return fmt.Errorf("npu: packet %d arrives at %v, before packet %d at %v", p.ID, p.Arrival, pkts[i-1].ID, pkts[i-1].Arrival)
		}
	}
	c.arrivals = pkts
	c.arrivalSeq = c.k.Reserve(len(pkts))
	c.arriveFn = c.arrive
	if len(pkts) > 0 {
		c.k.ScheduleReserved(pkts[0].Arrival, c.arrivalSeq, c.arriveFn)
	}
	return nil
}

// arrive fires arrival nextArrival: it files the following arrival under
// its reserved sequence number, then hands the packet to the port.
func (c *Chip) arrive() {
	i := c.nextArrival
	c.nextArrival++
	if n := i + 1; n < len(c.arrivals) {
		c.k.ScheduleReserved(c.arrivals[n].Arrival, c.arrivalSeq+uint64(n), c.arriveFn)
	}
	c.portArrive(c.arrivals[i])
}

// portArrive is the media-side arrival: the traffic monitor sees the packet
// here, then the IX bus moves it into the RFIFO. Port faults act first —
// a dropped packet never reaches the device (it is not counted as
// arrived), and a stalled packet arrives when its stall window ends.
func (c *Chip) portArrive(p traffic.Packet) {
	if c.faults != nil {
		resume, drop := c.faults.PortFault(p.Port, c.k.Now())
		if drop {
			c.pktsFaultDropped++
			c.emit(trace.EvFaultDrop, c.pktsArrived, c.bitsArrived, nil)
			return
		}
		if resume > c.k.Now() {
			c.k.Schedule(resume, func() { c.portArrive(p) })
			return
		}
	}
	c.bitsArrived += p.Bits()
	c.pktsArrived++
	if c.cfg.MonitorOverhead {
		c.meter.Monitor()
	}
	handle := int64(len(c.pkts))
	c.pkts = append(c.pkts, pktDesc{pkt: p, state: pktArriving, egress: (p.Port + c.cfg.Ports/2) % c.cfg.Ports})
	// IX bus serialization: one packet transfer at a time.
	xfer := c.busTime(p.Size)
	start := c.k.Now()
	if c.busFree > start {
		start = c.busFree
	}
	c.busFree = start + xfer
	c.busQ.push(handle)
	c.k.Schedule(c.busFree, c.deliverFn)
}

func (c *Chip) busTime(bytes int) sim.Time {
	bits := float64(bytes * 8)
	sec := bits / (c.cfg.BusGbps * 1e9)
	t := sim.Time(sec * float64(sim.Second))
	if t < 1 {
		t = 1
	}
	return t
}

func (c *Chip) rfifoPush(handle int64) {
	d := &c.pkts[handle]
	if c.rfifo.len() >= c.cfg.RFIFODepth {
		d.state = pktDropped
		c.pktsDropped++
		c.emit(trace.EvDrop, c.pktsArrived, c.bitsArrived, nil)
		return
	}
	d.state = pktQueued
	c.rfifo.push(handle)
	if c.rfifo.len() > c.fifoHighWater {
		c.fifoHighWater = c.rfifo.len()
	}
	c.pktsQueued++
	c.emit(trace.EvFifo, c.pktsQueued, c.bitsArrived, nil)
}

// rfifoPop is the rx.pop instruction: non-blocking, -1 when empty.
func (c *Chip) rfifoPop() int64 {
	if c.rfifo.len() == 0 {
		return -1
	}
	h := c.rfifo.pop()
	c.pkts[h].state = pktProcessing
	return h
}

// txRingPush is the tx.push instruction; reports success.
func (c *Chip) txRingPush(handle int64) bool {
	if c.txRing.len() >= c.cfg.TxRingDepth {
		return false
	}
	c.txRing.push(handle)
	return true
}

// txRingPop is the tx.pop instruction: -1 when empty.
func (c *Chip) txRingPop() int64 {
	if c.txRing.len() == 0 {
		return -1
	}
	return c.txRing.pop()
}

// pktField implements the pkt.f instruction.
func (c *Chip) pktField(handle int64, f isa.PktField, me, pc int) int64 {
	if handle < 0 || handle >= int64(len(c.pkts)) {
		panic(fmt.Sprintf("npu: me%d pc%d: pkt.f on invalid handle %d", me, pc, handle))
	}
	p := &c.pkts[handle].pkt
	switch f {
	case isa.FieldSize:
		return int64(p.Size)
	case isa.FieldPort:
		return int64(p.Port)
	case isa.FieldID:
		return int64(p.ID)
	}
	panic(fmt.Sprintf("npu: me%d pc%d: unknown packet field %d", me, pc, int64(f)))
}

// sendPacket implements the send instruction: claim a TFIFO slot on the
// egress port (or wait), transmit, emit the forward event, release.
func (c *Chip) sendPacket(handle int64, me int, granted sim.Handler) {
	if handle < 0 || handle >= int64(len(c.pkts)) {
		panic(fmt.Sprintf("npu: me%d: send of invalid handle %d", me, handle))
	}
	port := c.pkts[handle].egress
	if c.tfifoUsed[port] < c.cfg.TFIFODepth {
		c.grant(port, waiter{handle: handle, granted: granted})
		return
	}
	c.waiters[port].push(waiter{handle: handle, granted: granted})
}

// grant gives a send a TFIFO slot on port: the packet starts out and its
// context wakes.
func (c *Chip) grant(port int, w waiter) {
	c.tfifoUsed[port]++
	c.startTransmit(w.handle, port)
	w.granted()
}

func (c *Chip) startTransmit(handle int64, port int) {
	d := &c.pkts[handle]
	bits := float64(d.pkt.Bits())
	wire := sim.Time(bits / (c.cfg.PortMbps * 1e6) * float64(sim.Second))
	start := c.k.Now()
	if c.portFree[port] > start {
		start = c.portFree[port]
	}
	done := start + wire
	c.portFree[port] = done
	c.txQ[port].push(handle)
	c.k.Schedule(done, c.txDoneFns[port])
}

// txDone completes the oldest transmission on port: the forward event,
// then the freed TFIFO slot goes to the first waiting send.
func (c *Chip) txDone(port int) {
	d := &c.pkts[c.txQ[port].pop()]
	d.state = pktSent
	c.pktsSent++
	c.bitsSent += d.pkt.Bits()
	c.emit(trace.EvForward, c.pktsSent, c.bitsSent, nil)
	c.tfifoUsed[port]--
	if c.waiters[port].len() > 0 {
		c.grant(port, c.waiters[port].pop())
	}
}

// scratch memory and fixed-latency units.

func (c *Chip) scratchRead(addr int64) int64 { return c.scratch[addr] }
func (c *Chip) scratchWrite(addr, v int64)   { c.scratch[addr] = v }
func (c *Chip) scratchDelay() sim.Time {
	return sim.Time(c.cfg.ScratchNs * float64(sim.Nanosecond))
}
func (c *Chip) csrDelay() sim.Time { return sim.Time(c.cfg.CsrNs * float64(sim.Nanosecond)) }

func (c *Chip) chargeMem(unit memUnit, words int64) {
	switch unit {
	case sramUnit:
		c.meter.Sram(words)
	case sdramUnit:
		c.meter.Sdram(words)
	case scratchUnit:
		c.meter.Scratch(words)
	}
}

// --- DVS target surface -------------------------------------------------

// NumMEs returns the microengine count.
func (c *Chip) NumMEs() int { return len(c.mes) }

// TrafficBits returns cumulative bits observed arriving at the device
// ports — the TDVS monitor input.
func (c *Chip) TrafficBits() uint64 { return c.bitsArrived }

// MEIdle returns cumulative idle time of microengine i (excluding DVS
// stalls) — the EDVS monitor input.
func (c *Chip) MEIdle(i int) sim.Time { return c.mes[i].IdleTime() }

// SetMEVF transitions one microengine, applying the stall penalty.
func (c *Chip) SetMEVF(i int, vf power.VF) { c.mes[i].setVF(vf) }

// SetAllVF transitions every microengine, applying the stall penalty to
// each (chip-wide TDVS).
func (c *Chip) SetAllVF(vf power.VF) {
	for _, me := range c.mes {
		me.setVF(vf)
	}
}

// QueueOccupancy returns the RFIFO fill and capacity — the queue-pressure
// monitor input for feedback (PID) and power-state-machine policies.
func (c *Chip) QueueOccupancy() (used, capacity int) {
	return c.rfifo.len(), c.cfg.RFIFODepth
}

// SetMESleep moves microengine i to DPM state depth (clamped to [0, 2]).
// Entering sleep is immediate; waking applies a depth-scaled stall penalty.
func (c *Chip) SetMESleep(i, depth int) { c.mes[i].setSleep(depth) }

// --- trace emission ------------------------------------------------------

// annotate fills the standard annotations at the current time.
func (c *Chip) annotate(ev *trace.Event, totalPkt, totalBit uint64) {
	now := c.k.Now()
	// Base power accrues lazily so that energy snapshots are exact at
	// every event.
	if now > c.lastBaseUpdate {
		c.meter.Base((now - c.lastBaseUpdate).Micros())
		c.lastBaseUpdate = now
	}
	ev.Cycle = uint64(c.ref.CyclesIn(now))
	ev.Time = now.Micros()
	ev.Energy = c.meter.Total()
	ev.TotalPkt = totalPkt
	ev.TotalBit = totalBit
}

func (c *Chip) emit(name string, totalPkt, totalBit uint64, extra map[string]float64) {
	if c.sinkErr != nil {
		return
	}
	c.ev.Name, c.ev.Extra = name, extra
	c.annotate(&c.ev, totalPkt, totalBit)
	if err := c.sink.Emit(&c.ev); err != nil {
		c.sinkErr = err
	}
}

// EmitExternal emits a fully annotated trace event on behalf of a layer
// outside the chip (the fault injector announcing fault windows). The
// packet/bit totals are the forwarding totals, as for other chip-state
// events.
func (c *Chip) EmitExternal(name string, extra map[string]float64) {
	c.emit(name, c.pktsSent, c.bitsSent, extra)
}

// clearedExtra returns the reused extras map, emptied, for an ME event.
func (c *Chip) clearedExtra() map[string]float64 {
	clear(c.extra)
	return c.extra
}

func (c *Chip) emitVFChange(me int, vf power.VF) {
	if c.sinkErr != nil {
		return
	}
	x := c.clearedExtra()
	x["mhz"] = vf.MHz
	x["volts"] = vf.Volts
	c.emit(c.meNames[me].vfchange, c.pktsSent, c.bitsSent, x)
}

func (c *Chip) emitPipeline(me int, instrs int64) {
	if !c.cfg.EmitPipeline || c.sinkErr != nil {
		return
	}
	x := c.clearedExtra()
	x["instrs"] = float64(instrs)
	c.emit(c.meNames[me].pipeline, c.pktsSent, c.bitsSent, x)
}

// sampleIdle emits the per-ME idle-fraction events for the §4.2 study.
func (c *Chip) sampleIdle(at sim.Time) {
	for i, me := range c.mes {
		idle := me.IdleTime()
		frac := float64(idle-c.lastIdleSample[i]) / float64(c.cfg.IdleSampleWindow)
		c.lastIdleSample[i] = idle
		if c.sinkErr != nil {
			return
		}
		x := c.clearedExtra()
		x["idle_frac"] = frac
		c.emit(c.meNames[i].idle, c.pktsSent, c.bitsSent, x)
	}
}

// --- results -------------------------------------------------------------

// Stats summarizes a finished run.
type Stats struct {
	Now           sim.Time
	PktsArrived   uint64
	PktsQueued    uint64
	PktsDropped   uint64
	PktsSent      uint64
	BitsArrived   uint64
	BitsSent      uint64
	EnergyUJ      float64
	AvgPowerW     float64
	FifoHighWater int
	MEIdleFrac    []float64
	MEStallFrac   []float64
	MEBusyFrac    []float64
	MESleepFrac   []float64
	MEDeepFrac    []float64
	MESleepWakes  []uint64
	MEInstr       []uint64
	MEMemRefs     []uint64
	MEVFChanges   []uint64
	SdramRowHits  uint64
	SdramRowMiss  uint64
	// FaultDropped counts packets lost to injected port-drop faults; they
	// never reached the device, so they are outside PktsArrived and the
	// RFIFO loss accounting.
	FaultDropped uint64
}

// SentMbps returns measured forwarding throughput.
func (s Stats) SentMbps() float64 {
	if s.Now <= 0 {
		return 0
	}
	return float64(s.BitsSent) / s.Now.Seconds() / 1e6
}

// OfferedMbps returns measured offered load.
func (s Stats) OfferedMbps() float64 {
	if s.Now <= 0 {
		return 0
	}
	return float64(s.BitsArrived) / s.Now.Seconds() / 1e6
}

// LossFrac returns the packet loss fraction.
func (s Stats) LossFrac() float64 {
	if s.PktsArrived == 0 {
		return 0
	}
	return float64(s.PktsDropped) / float64(s.PktsArrived)
}

// Snapshot captures statistics at the current simulation time.
func (c *Chip) Snapshot() Stats {
	now := c.k.Now()
	if now > c.lastBaseUpdate {
		c.meter.Base((now - c.lastBaseUpdate).Micros())
		c.lastBaseUpdate = now
	}
	// Settle open sleep segments so their retention energy is in the
	// snapshot's totals (Base is settled the same way above).
	for _, me := range c.mes {
		me.settleSleep(now)
	}
	st := Stats{
		Now:         now,
		PktsArrived: c.pktsArrived, PktsQueued: c.pktsQueued,
		PktsDropped: c.pktsDropped, PktsSent: c.pktsSent,
		BitsArrived: c.bitsArrived, BitsSent: c.bitsSent,
		EnergyUJ:      c.meter.Total(),
		FifoHighWater: c.fifoHighWater,
		SdramRowHits:  c.sdramTm.hits,
		SdramRowMiss:  c.sdramTm.misses,
		FaultDropped:  c.pktsFaultDropped,
	}
	if now > 0 {
		st.AvgPowerW = st.EnergyUJ / now.Micros()
	}
	for _, me := range c.mes {
		st.MEIdleFrac = append(st.MEIdleFrac, float64(me.IdleTime())/float64(now))
		st.MEStallFrac = append(st.MEStallFrac, float64(me.StallTime())/float64(now))
		st.MEBusyFrac = append(st.MEBusyFrac, float64(me.BusyTime())/float64(now))
		st.MESleepFrac = append(st.MESleepFrac, float64(me.SleepTime())/float64(now))
		st.MEDeepFrac = append(st.MEDeepFrac, float64(me.DeepSleepTime())/float64(now))
		st.MESleepWakes = append(st.MESleepWakes, me.SleepWakes())
		st.MEInstr = append(st.MEInstr, me.InstrCount())
		st.MEMemRefs = append(st.MEMemRefs, me.MemRefs())
		st.MEVFChanges = append(st.MEVFChanges, me.VFChanges())
	}
	return st
}

// StopTickers cancels periodic chip activity (idle sampling) so that a
// bounded run can drain cleanly.
func (c *Chip) StopTickers() {
	if c.idleTicker != nil {
		c.idleTicker.Stop()
	}
}
