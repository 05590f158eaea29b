package npu

import (
	"reflect"
	"testing"

	"nepdvs/internal/isa"
	"nepdvs/internal/power"
	"nepdvs/internal/sim"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumMEs = 0 },
		func(c *Config) { c.NumCtx = 0 },
		func(c *Config) { c.NumCtx = 9 },
		func(c *Config) { c.RxMEs = 0 },
		func(c *Config) { c.RxMEs = c.NumMEs },
		func(c *Config) { c.MEVF = power.VF{} },
		func(c *Config) { c.RefMHz = 0 },
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.PortMbps = 0 },
		func(c *Config) { c.BusGbps = -1 },
		func(c *Config) { c.RFIFODepth = 0 },
		func(c *Config) { c.TFIFODepth = 0 },
		func(c *Config) { c.TxRingDepth = 0 },
		func(c *Config) { c.SramMHz = 0 },
		func(c *Config) { c.SdramBanks = 0 },
		func(c *Config) { c.SramPipeNs = -1 },
		func(c *Config) { c.DVSPenalty = -1 },
		func(c *Config) { c.BatchCycles = 0 },
		func(c *Config) { c.Power.MEInstr = -1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestMemControllerFCFSAndQueueing(t *testing.T) {
	var k sim.Kernel
	mc := newMemController(&k, "test", func(r memRequest) sim.Time {
		return sim.Time(r.words) * 100
	})
	var done []int
	for i := 1; i <= 3; i++ {
		i := i
		mc.request(memRequest{words: int64(i), done: func() { done = append(done, i) }})
	}
	k.Run()
	if !reflect.DeepEqual(done, []int{1, 2, 3}) {
		t.Fatalf("completion order = %v", done)
	}
	// Occupancies serialize: 100 + 200 + 300.
	if k.Now() != 600 {
		t.Fatalf("final time = %v, want 600", k.Now())
	}
	reqs, words, maxQ := mc.stats()
	if reqs != 3 || words != 6 || maxQ < 1 {
		t.Fatalf("stats = %d, %d, %d", reqs, words, maxQ)
	}
}

func TestSdramRowModel(t *testing.T) {
	tm := newSdramTiming(4, 50, 10)
	// First access to a row: miss.
	t1 := tm.serviceTime(memRequest{addr: 0, words: 4})
	if t1 != sim.Time(90*sim.Nanosecond) {
		t.Fatalf("row-miss time = %v, want 90ns", t1)
	}
	// Same bank (addr>>3 ≡ 0 mod 4), same row: hit.
	t2 := tm.serviceTime(memRequest{addr: 32, words: 4})
	if t2 != sim.Time(40*sim.Nanosecond) {
		t.Fatalf("row-hit time = %v, want 40ns", t2)
	}
	// Different row, same bank: miss again.
	t3 := tm.serviceTime(memRequest{addr: 1 << 12, words: 4})
	if t3 != sim.Time(90*sim.Nanosecond) {
		t.Fatalf("row-conflict time = %v, want 90ns", t3)
	}
	if tm.hits != 1 || tm.misses != 2 {
		t.Fatalf("hits/misses = %d/%d", tm.hits, tm.misses)
	}
}

// buildChip assembles a default chip running the given benchmark.
func buildChip(t testing.TB, cfg Config, bench workload.Name, sink trace.Sink) (*sim.Kernel, *Chip) {
	t.Helper()
	progs, err := workload.Programs(bench, workload.DefaultParams(), cfg.NumMEs, cfg.RxMEs)
	if err != nil {
		t.Fatal(err)
	}
	k := &sim.Kernel{}
	chip, err := New(cfg, k, progs, sink)
	if err != nil {
		t.Fatal(err)
	}
	return k, chip
}

func genTraffic(t testing.TB, mbps float64, dur sim.Time, seed int64) []traffic.Packet {
	t.Helper()
	g, err := traffic.NewGenerator(traffic.Config{MeanMbps: mbps, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g.GenerateUntil(dur)
}

func TestNewErrors(t *testing.T) {
	k := &sim.Kernel{}
	cfg := DefaultConfig()
	progs, _ := workload.Programs(workload.IPFwdr, workload.DefaultParams(), 6, 4)
	if _, err := New(cfg, k, progs[:3], nil); err == nil {
		t.Error("wrong program count accepted")
	}
	bad := make([]*isa.Program, 6)
	copy(bad, progs)
	bad[2] = nil
	if _, err := New(cfg, k, bad, nil); err == nil {
		t.Error("nil program accepted")
	}
	cfg.NumMEs = 0
	if _, err := New(cfg, k, progs, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestEndToEndForwarding(t *testing.T) {
	cfg := DefaultConfig()
	var col trace.Collector
	k, chip := buildChip(t, cfg, workload.IPFwdr, &col)
	dur := 2 * sim.Millisecond
	pkts := genTraffic(t, 900, dur, 1)
	if err := chip.Inject(pkts); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(dur)
	st := chip.Snapshot()
	if st.PktsArrived != uint64(len(pkts)) {
		t.Fatalf("arrived %d of %d", st.PktsArrived, len(pkts))
	}
	if st.PktsSent == 0 {
		t.Fatal("no packets forwarded")
	}
	// Nearly everything should get through at 900 Mbps with no DVS.
	if frac := float64(st.PktsSent) / float64(st.PktsArrived); frac < 0.9 {
		t.Fatalf("forwarded only %.1f%% of packets (dropped %d, fifo high water %d)",
			frac*100, st.PktsDropped, st.FifoHighWater)
	}
	if st.EnergyUJ <= 0 || st.AvgPowerW <= 0.2 || st.AvgPowerW > 3 {
		t.Fatalf("implausible power: %v W (energy %v uJ)", st.AvgPowerW, st.EnergyUJ)
	}
	// Trace contents: fifo and forward events with monotone annotations.
	var fifo, fwd int
	var lastCycle uint64
	var lastEnergy float64
	for _, ev := range col.Events {
		if ev.Cycle < lastCycle && false {
			t.Fatal("cycle went backwards")
		}
		lastCycle = ev.Cycle
		if ev.Energy+1e-9 < lastEnergy {
			t.Fatalf("energy decreased: %v -> %v", lastEnergy, ev.Energy)
		}
		lastEnergy = ev.Energy
		switch ev.Name {
		case trace.EvFifo:
			fifo++
		case trace.EvForward:
			fwd++
		}
	}
	if fifo == 0 || fwd == 0 {
		t.Fatalf("trace has %d fifo, %d forward events", fifo, fwd)
	}
	if uint64(fwd) != st.PktsSent {
		t.Fatalf("forward events %d != sent %d", fwd, st.PktsSent)
	}
	if chip.SinkErr() != nil {
		t.Fatal(chip.SinkErr())
	}
}

func TestDeterministicTraces(t *testing.T) {
	run := func() []trace.Event {
		cfg := DefaultConfig()
		var col trace.Collector
		k, chip := buildChip(t, cfg, workload.URL, &col)
		dur := 1 * sim.Millisecond
		chip.Inject(genTraffic(t, 700, dur, 42))
		k.RunUntil(dur)
		return col.Events
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and config produced different traces")
	}
}

func TestPollingKeepsMEsBusyAtZeroTraffic(t *testing.T) {
	cfg := DefaultConfig()
	k, chip := buildChip(t, cfg, workload.IPFwdr, nil)
	k.RunUntil(1 * sim.Millisecond)
	st := chip.Snapshot()
	// No packets at all: the paper's point is that MEs poll, not idle.
	for i, f := range st.MEIdleFrac {
		if f > 0.02 {
			t.Errorf("ME%d idle fraction %v at zero traffic; polling should keep it busy", i, f)
		}
	}
	if st.MEInstr[0] == 0 {
		t.Error("RX ME executed nothing")
	}
	// And substantial energy is burned doing so (no free idling).
	if st.AvgPowerW < 0.5 {
		t.Errorf("zero-traffic power %v W implausibly low for polling MEs", st.AvgPowerW)
	}
}

func TestRFIFOOverflowDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RFIFODepth = 2
	// Slow the MEs to near standstill so the FIFO cannot drain.
	cfg.MEVF = power.VF{MHz: 1, Volts: 1.1}
	var col trace.Collector
	k, chip := buildChip(t, cfg, workload.MD4, &col)
	dur := 500 * sim.Microsecond
	chip.Inject(genTraffic(t, 1200, dur, 3))
	k.RunUntil(dur)
	st := chip.Snapshot()
	if st.PktsDropped == 0 {
		t.Fatal("no drops despite tiny RFIFO and stalled MEs")
	}
	var drops int
	for _, ev := range col.Events {
		if ev.Name == trace.EvDrop {
			drops++
		}
	}
	if uint64(drops) != st.PktsDropped {
		t.Fatalf("drop events %d != counter %d", drops, st.PktsDropped)
	}
}

func TestSetAllVFStallsAndRecovers(t *testing.T) {
	cfg := DefaultConfig()
	k, chip := buildChip(t, cfg, workload.NAT, nil)
	dur := 400 * sim.Microsecond
	chip.Inject(genTraffic(t, 600, dur, 5))
	k.RunUntil(100 * sim.Microsecond)
	before := chip.Snapshot().MEInstr[0]
	low := power.VF{MHz: 400, Volts: 1.1}
	chip.SetAllVF(low)
	// During the 10 µs penalty no instructions may issue (check one
	// picosecond before the stall expires; the boundary event is free to
	// run at expiry).
	k.RunUntil(100*sim.Microsecond + cfg.DVSPenalty - 1)
	during := chip.Snapshot().MEInstr[0]
	if during != before {
		t.Fatalf("ME0 executed %d instructions during the stall", during-before)
	}
	k.RunUntil(dur)
	st := chip.Snapshot()
	if st.MEInstr[0] == during {
		t.Fatal("ME0 never resumed after the stall")
	}
	if chip.mes[0].vf != low {
		t.Fatalf("VF = %v, want %v", chip.mes[0].vf, low)
	}
	if st.MEStallFrac[0] <= 0 {
		t.Fatal("no stall time accounted")
	}
	// Stall must not be booked as idle.
	if st.MEIdleFrac[0] > 0.2 {
		t.Errorf("idle fraction %v suspiciously high; stall leaking into idle?", st.MEIdleFrac[0])
	}
}

func TestSetMEVFIndependent(t *testing.T) {
	cfg := DefaultConfig()
	k, chip := buildChip(t, cfg, workload.NAT, nil)
	k.RunUntil(50 * sim.Microsecond)
	low := power.VF{MHz: 450, Volts: 1.15}
	chip.SetMEVF(2, low)
	k.RunUntil(60 * sim.Microsecond)
	if chip.mes[2].vf != low {
		t.Fatalf("ME2 VF = %v", chip.mes[2].vf)
	}
	if chip.mes[1].vf != cfg.MEVF {
		t.Fatalf("ME1 VF changed: %v", chip.mes[1].vf)
	}
	if chip.mes[1].StallTime() != 0 {
		t.Fatal("ME1 stalled on ME2's transition")
	}
}

func TestLowerFrequencySlowsExecution(t *testing.T) {
	count := func(vf power.VF) uint64 {
		cfg := DefaultConfig()
		cfg.MEVF = vf
		k, chip := buildChip(t, cfg, workload.NAT, nil)
		k.RunUntil(200 * sim.Microsecond)
		return chip.Snapshot().MEInstr[0]
	}
	fast := count(power.VF{MHz: 600, Volts: 1.3})
	slow := count(power.VF{MHz: 400, Volts: 1.1})
	ratio := float64(slow) / float64(fast)
	if ratio < 0.60 || ratio > 0.73 {
		t.Fatalf("400/600 MHz instruction ratio = %v, want ~0.67", ratio)
	}
}

func TestLowerVoltageReducesPower(t *testing.T) {
	run := func(vf power.VF) float64 {
		cfg := DefaultConfig()
		cfg.MEVF = vf
		k, chip := buildChip(t, cfg, workload.IPFwdr, nil)
		dur := 1 * sim.Millisecond
		chip.Inject(genTraffic(t, 700, dur, 9))
		k.RunUntil(dur)
		return chip.Snapshot().AvgPowerW
	}
	high := run(power.VF{MHz: 600, Volts: 1.3})
	low := run(power.VF{MHz: 400, Volts: 1.1})
	if low >= high {
		t.Fatalf("low-VF power %v W >= high-VF %v W", low, high)
	}
	if low/high > 0.85 {
		t.Fatalf("power ratio %v, want a clear reduction", low/high)
	}
}

func TestTrafficBitsMonitorsOfferedLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MonitorOverhead = true
	k, chip := buildChip(t, cfg, workload.IPFwdr, nil)
	dur := 1 * sim.Millisecond
	pkts := genTraffic(t, 800, dur, 7)
	chip.Inject(pkts)
	k.RunUntil(dur)
	var want uint64
	for _, p := range pkts {
		want += p.Bits()
	}
	if got := chip.TrafficBits(); got != want {
		t.Fatalf("TrafficBits = %d, want %d", got, want)
	}
	// Monitor overhead must stay under the paper's 1%.
	if f := chip.Meter().MonitorFraction(); f <= 0 || f >= 0.01 {
		t.Fatalf("monitor energy fraction = %v", f)
	}
}

func TestIdleSampling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleSampleWindow = 50 * sim.Microsecond
	var col trace.Collector
	k, chip := buildChip(t, cfg, workload.IPFwdr, &col)
	dur := 500 * sim.Microsecond
	chip.Inject(genTraffic(t, 900, dur, 2))
	k.RunUntil(dur)
	chip.StopTickers()
	var idleEvents int
	for _, ev := range col.Events {
		if ev.Name == trace.MEEvent(0, trace.EvIdle) {
			idleEvents++
			frac, ok := ev.Extra["idle_frac"]
			if !ok || frac < 0 || frac > 1 {
				t.Fatalf("bad idle_frac %v, %v", frac, ok)
			}
		}
	}
	if idleEvents < 9 || idleEvents > 10 {
		t.Fatalf("idle events for ME0 = %d, want ~10", idleEvents)
	}
}

func TestInjectRejectsBadPort(t *testing.T) {
	cfg := DefaultConfig()
	k, chip := buildChip(t, cfg, workload.IPFwdr, nil)
	err := chip.Inject([]traffic.Packet{{Port: 99, Size: 100}})
	if err == nil {
		t.Fatal("bad port accepted")
	}
	// A bad port after good packets rejects the whole batch: no arrival
	// of it is left scheduled beside the MEs' first steps.
	before := k.Pending()
	err = chip.Inject([]traffic.Packet{
		{ID: 0, Arrival: sim.Microsecond, Port: 0, Size: 64},
		{ID: 1, Arrival: 2 * sim.Microsecond, Port: 1, Size: 64},
		{ID: 2, Arrival: 3 * sim.Microsecond, Port: -1, Size: 64},
	})
	if err == nil {
		t.Fatal("good-then-bad batch accepted")
	}
	if n := k.Pending(); n != before {
		t.Fatalf("rejected batch left %d events scheduled", n-before)
	}
}

// An unsorted stream and a second stream are both rejected before anything
// is scheduled.
func TestInjectRejectsUnsortedAndSecondStream(t *testing.T) {
	cfg := DefaultConfig()
	k, chip := buildChip(t, cfg, workload.IPFwdr, nil)
	before := k.Pending()
	err := chip.Inject([]traffic.Packet{
		{ID: 0, Arrival: 2 * sim.Microsecond, Port: 0, Size: 64},
		{ID: 1, Arrival: 2 * sim.Microsecond, Port: 1, Size: 64},
		{ID: 2, Arrival: sim.Microsecond, Port: 2, Size: 64},
	})
	if err == nil {
		t.Fatal("unsorted stream accepted")
	}
	if n := k.Pending(); n != before {
		t.Fatalf("rejected stream left %d events scheduled", n-before)
	}
	if err := chip.Inject(genTraffic(t, 900, 20*sim.Microsecond, 1)); err != nil {
		t.Fatal(err)
	}
	before = k.Pending()
	if err := chip.Inject([]traffic.Packet{{ID: 9, Arrival: sim.Microsecond, Port: 0, Size: 64}}); err == nil {
		t.Fatal("second stream accepted")
	}
	if n := k.Pending(); n != before {
		t.Fatalf("second stream left %d events scheduled", n-before)
	}
}

func TestPipelineEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EmitPipeline = true
	var count trace.CountingSink
	k, chip := buildChip(t, cfg, workload.NAT, &count)
	k.RunUntil(50 * sim.Microsecond)
	_ = chip
	if count.Counts[trace.MEEvent(0, trace.EvPipeline)] == 0 {
		t.Fatal("no pipeline events with EmitPipeline")
	}
}

// The chip reuses one extras map for every ME event; a Collector must still
// end up with a distinct map per event, each holding that event's values.
func TestReusedExtrasCollectDistinct(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EmitPipeline = true
	cfg.IdleSampleWindow = 10 * sim.Microsecond
	var col trace.Collector
	k, chip := buildChip(t, cfg, workload.NAT, &col)
	chip.Inject(genTraffic(t, 900, 60*sim.Microsecond, 3))
	k.RunUntil(20 * sim.Microsecond)
	chip.SetAllVF(power.VF{MHz: 550, Volts: 1.25})
	k.RunUntil(60 * sim.Microsecond)
	chip.StopTickers()

	want := map[string][]string{
		trace.EvPipeline: {"instrs"},
		trace.EvIdle:     {"idle_frac"},
		trace.EvVFChange: {"mhz", "volts"},
	}
	seen := make(map[uintptr]bool)
	instrs := make([]float64, cfg.NumMEs)
	kinds := make(map[string]int)
	for i, ev := range col.Events {
		if ev.Extra == nil {
			continue
		}
		p := reflect.ValueOf(ev.Extra).Pointer()
		if seen[p] {
			t.Fatalf("event %d (%s) shares its Extra map with an earlier event", i, ev.Name)
		}
		seen[p] = true
		for me := 0; me < cfg.NumMEs; me++ {
			for kind, keys := range want {
				if ev.Name != trace.MEEvent(me, kind) {
					continue
				}
				kinds[kind]++
				if len(ev.Extra) != len(keys) {
					t.Fatalf("event %d (%s) extras = %v, want keys %v", i, ev.Name, ev.Extra, keys)
				}
				for _, key := range keys {
					if _, ok := ev.Extra[key]; !ok {
						t.Fatalf("event %d (%s) extras = %v, want keys %v", i, ev.Name, ev.Extra, keys)
					}
				}
				if kind == trace.EvPipeline {
					instrs[me] += ev.Extra["instrs"]
				}
			}
		}
	}
	for kind := range want {
		if kinds[kind] == 0 {
			t.Fatalf("no %s events collected", kind)
		}
	}
	st := chip.Snapshot()
	for me, n := range instrs {
		if uint64(n) != st.MEInstr[me] {
			t.Errorf("ME%d pipeline events sum to %v instrs, chip retired %d", me, n, st.MEInstr[me])
		}
	}
}

func TestVFChangeEvents(t *testing.T) {
	cfg := DefaultConfig()
	var col trace.Collector
	k, chip := buildChip(t, cfg, workload.NAT, &col)
	k.RunUntil(20 * sim.Microsecond)
	chip.SetAllVF(power.VF{MHz: 550, Volts: 1.25})
	k.RunUntil(40 * sim.Microsecond)
	var n int
	for _, ev := range col.Events {
		if ev.Name == trace.MEEvent(3, trace.EvVFChange) {
			n++
			if mhz := ev.Extra["mhz"]; mhz != 550 {
				t.Fatalf("vfchange mhz = %v", mhz)
			}
		}
	}
	if n != 1 {
		t.Fatalf("vfchange events for ME3 = %d, want 1", n)
	}
}

func TestStatsDerivedRates(t *testing.T) {
	st := Stats{Now: sim.Second, BitsSent: 500e6, BitsArrived: 600e6, PktsArrived: 100, PktsDropped: 10}
	if got := st.SentMbps(); got != 500 {
		t.Errorf("SentMbps = %v", got)
	}
	if got := st.OfferedMbps(); got != 600 {
		t.Errorf("OfferedMbps = %v", got)
	}
	if got := st.LossFrac(); got != 0.1 {
		t.Errorf("LossFrac = %v", got)
	}
	var zero Stats
	if zero.SentMbps() != 0 || zero.LossFrac() != 0 {
		t.Error("zero stats should degrade gracefully")
	}
}

// BenchmarkSimulation times one millisecond of ipfwdr at high load on the
// default chip. Every iteration simulates the same traffic, so ns/op does
// not depend on b.N; instrs/s is the interpreter's throughput in
// retired ME instructions per host second.
// TestContextMasksMatchScans checks the mask forms of the context queries
// against per-context scans, for every NumCtx, every state of every context
// and every running context.
func TestContextMasksMatchScans(t *testing.T) {
	const (
		ready = iota
		memWait
		txWait
		halted
	)
	for n := 1; n <= 8; n++ {
		me := &ME{ctxs: make([]context, n)}
		states := make([]int, n)
		for code := 0; code < 1<<(2*n); code++ {
			me.ready, me.live, me.memWait = 0, 0, 0
			nReady, nLive, allMem := 0, 0, true
			for ci := range states {
				s, bit := code>>(2*ci)&3, uint8(1)<<ci
				states[ci] = s
				if s != halted {
					me.live |= bit
					nLive++
					allMem = allMem && s == memWait
				}
				if s == ready {
					me.ready |= bit
					nReady++
				}
				if s == memWait {
					me.memWait |= bit
				}
			}
			if me.readyCount() != nReady || me.liveContexts() != nLive || me.allBlockedOnMemory() != allMem {
				t.Fatalf("n=%d states %v: readyCount %d liveContexts %d allBlockedOnMemory %v, scans %d %d %v",
					n, states, me.readyCount(), me.liveContexts(), me.allBlockedOnMemory(), nReady, nLive, allMem)
			}
			for cur := -1; cur < n; cur++ {
				want := -1
				for k, ci := 0, cur; k < n; k++ {
					if ci = (ci + 1) % n; states[ci] == ready {
						want = ci
						break
					}
				}
				if me.cur = cur; me.pickReady() != want {
					t.Fatalf("n=%d states %v cur %d: pickReady %d, scan %d", n, states, cur, me.pickReady(), want)
				}
			}
		}
	}
}

func BenchmarkSimulation(b *testing.B) {
	cfg := DefaultConfig()
	progs, err := workload.Programs(workload.IPFwdr, workload.DefaultParams(), cfg.NumMEs, cfg.RxMEs)
	if err != nil {
		b.Fatal(err)
	}
	dur := 1 * sim.Millisecond
	pkts := genTraffic(b, 900, dur, 1)
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		k := &sim.Kernel{}
		chip, err := New(cfg, k, progs, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := chip.Inject(pkts); err != nil {
			b.Fatal(err)
		}
		k.RunUntil(dur)
		for _, n := range chip.Snapshot().MEInstr {
			instrs += n
		}
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}
