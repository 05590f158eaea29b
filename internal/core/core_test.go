package core

import (
	"strings"
	"testing"

	"nepdvs/internal/loc"
	"nepdvs/internal/obs"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// shortCfg returns a reduced-length run for tests (2·10⁶ reference cycles
// ≈ 3.3 ms instead of the paper's 8·10⁶) at the given traffic level.
func shortCfg(t *testing.T, bench workload.Name, level traffic.Level) RunConfig {
	t.Helper()
	cfg, err := DefaultRunConfig(bench, level, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cycles = 2_000_000
	return cfg
}

func TestValidate(t *testing.T) {
	bad := []func(*RunConfig){
		func(c *RunConfig) { c.Bench = "bogus" },
		func(c *RunConfig) { c.Cycles = 0 },
		func(c *RunConfig) { c.Policy = NewPolicy("tdvs", nil) },                                            // missing required params
		func(c *RunConfig) { c.Policy = NewPolicy("tdvs", map[string]float64{"top_threshold_mbps": 1000}) }, // missing window
		func(c *RunConfig) { c.Policy = NewPolicy("edvs", map[string]float64{"window_cycles": 100}) },       // missing idle_frac
		func(c *RunConfig) { c.Policy = EDVSPolicy(100, 2) },                                                // idle_frac out of range
		func(c *RunConfig) {
			c.Policy = NewPolicy("combined", map[string]float64{"window_cycles": 100, "idle_frac": 0.1})
		},
		func(c *RunConfig) { c.Policy = NewPolicy("frobnicate", nil) },                  // unknown policy
		func(c *RunConfig) { c.Policy = NewPolicy("", map[string]float64{"kp": 1}) },    // params without a policy
		func(c *RunConfig) { c.Policy = NewPolicy("pid", map[string]float64{"qp": 1}) }, // unknown parameter
		func(c *RunConfig) { c.Policy = NewPolicy("psm", map[string]float64{"wake_queue_frac": 1.5}) },
	}
	for i, mut := range bad {
		cfg := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestBadFormulaSurfacesBeforeSimulation(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelLow)
	cfg.Formulas = "watts(forward[i]) <= 1"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "watts") {
		t.Fatalf("expected schema error, got %v", err)
	}
	cfg.Formulas = "syntax error ("
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestDefaultRunConfigLevels(t *testing.T) {
	var rates []float64
	for _, lv := range []traffic.Level{traffic.LevelLow, traffic.LevelMedium, traffic.LevelHigh} {
		cfg, err := DefaultRunConfig(workload.IPFwdr, lv, 1)
		if err != nil {
			t.Fatal(err)
		}
		rates = append(rates, cfg.Traffic.MeanMbps)
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Fatalf("level rates not ordered: %v", rates)
	}
	if _, err := DefaultRunConfig("nope", traffic.LevelLow, 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPolicyConfigString(t *testing.T) {
	for pol, want := range map[string]string{
		"": "noDVS", "tdvs": "tdvs", "TDVS": "tdvs", "EDVS": "edvs",
		"TDVS+EDVS": "combined", "pid": "pid", "psm": "psm",
	} {
		if got := NewPolicy(pol, nil).String(); got != want {
			t.Errorf("%q.String() = %q, want %q", pol, got, want)
		}
	}
	if got := NewPolicy("frobnicate", nil).String(); got != "frobnicate" {
		t.Errorf("unresolvable name should render verbatim, got %q", got)
	}
}

func TestStandardFormulasParse(t *testing.T) {
	fs, err := loc.ParseFile(StandardFormulas())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0].Name != "power" || fs[1].Name != "throughput" {
		t.Fatalf("formulas = %v", fs)
	}
	if _, err := loc.ParseFile(IdleFormula(3)); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFormulasAndTraceSink(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	cfg.Formulas = StandardFormulas()
	var col trace.Collector
	cfg.ExtraSink = &col
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LOC) != 2 {
		t.Fatalf("LOC results = %d", len(res.LOC))
	}
	p, ok := res.LOCByName("power")
	if !ok || p.Dist == nil || p.Dist.Instances == 0 {
		t.Fatalf("power result missing: %+v", p)
	}
	if _, ok := res.LOCByName("nope"); ok {
		t.Error("LOCByName found a nonexistent formula")
	}
	if len(col.Events) == 0 {
		t.Fatal("extra sink received nothing")
	}
	if res.Stats.PktsSent == 0 {
		t.Fatal("nothing forwarded")
	}
	if res.DVSStats != nil {
		t.Error("NoDVS run has DVS stats")
	}
}

// --- paper-shape integration tests ---------------------------------------

// TestTDVSSavesPower: every TDVS configuration must dissipate less than
// noDVS at the same traffic (paper Figure 6: "the power saving by TDVS is
// obvious no matter what threshold or window size is chosen").
func TestTDVSSavesPower(t *testing.T) {
	base := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	noDVS, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{800, 1400} {
		for _, w := range []int64{20000, 80000} {
			cfg := base
			cfg.Policy = TDVSPolicy(th, w)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.AvgPowerW >= noDVS.Stats.AvgPowerW {
				t.Errorf("TDVS th=%v w=%d power %.3f W >= noDVS %.3f W",
					th, w, res.Stats.AvgPowerW, noDVS.Stats.AvgPowerW)
			}
			if res.MonitorFraction <= 0 || res.MonitorFraction >= 0.01 {
				t.Errorf("monitor overhead fraction = %v, want (0, 1%%)", res.MonitorFraction)
			}
		}
	}
}

// TestSmallWindowHurtsThroughput: 20k-cycle windows thrash the VF ladder
// and the 6000-cycle penalties collapse throughput, while 80k windows are
// nearly free (paper Figure 7).
func TestSmallWindowHurtsThroughput(t *testing.T) {
	base := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	run := func(w int64) *RunResult {
		cfg := base
		cfg.Policy = TDVSPolicy(1000, w)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small, large := run(20000), run(80000)
	if small.Stats.SentMbps() >= large.Stats.SentMbps()*0.97 {
		t.Errorf("20k window throughput %.0f Mbps not clearly below 80k %.0f Mbps",
			small.Stats.SentMbps(), large.Stats.SentMbps())
	}
	if small.Stats.LossFrac() < 0.01 {
		t.Errorf("20k window loss %.3f, expected visible loss from thrashing", small.Stats.LossFrac())
	}
	if large.Stats.LossFrac() > 0.01 {
		t.Errorf("80k window loss %.3f, expected near-zero", large.Stats.LossFrac())
	}
	if small.DVSStats.Transitions <= 2*large.DVSStats.Transitions {
		t.Errorf("transition counts %d (20k) vs %d (80k) do not show thrashing",
			small.DVSStats.Transitions, large.DVSStats.Transitions)
	}
}

// TestEDVSNoPerformanceLoss: EDVS saves power with no material throughput
// loss (paper Figure 10: ~23% saving, "nearly no performance degradation").
func TestEDVSNoPerformanceLoss(t *testing.T) {
	base := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	noDVS, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Policy = EDVSPolicy(40000, 0.10)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	saving := 1 - res.Stats.AvgPowerW/noDVS.Stats.AvgPowerW
	if saving < 0.10 || saving > 0.40 {
		t.Errorf("EDVS power saving = %.1f%%, want roughly the paper's ~23%%", saving*100)
	}
	if res.Stats.SentMbps() < noDVS.Stats.SentMbps()*0.98 {
		t.Errorf("EDVS throughput %.0f Mbps vs noDVS %.0f Mbps: visible loss",
			res.Stats.SentMbps(), noDVS.Stats.SentMbps())
	}
	// The transmitting MEs must never scale down: no stall time on them.
	for i := base.Chip.RxMEs; i < base.Chip.NumMEs; i++ {
		if res.Stats.MEStallFrac[i] > 0 {
			t.Errorf("TX ME%d has stall time under EDVS; it must never transition", i)
		}
	}
}

// TestNatNoEDVSSavings: nat keeps the engines busy, so EDVS never finds
// idle time to exploit (paper Figure 11).
func TestNatNoEDVSSavings(t *testing.T) {
	base := shortCfg(t, workload.NAT, traffic.LevelHigh)
	noDVS, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Policy = EDVSPolicy(40000, 0.10)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	saving := 1 - res.Stats.AvgPowerW/noDVS.Stats.AvgPowerW
	if saving > 0.03 {
		t.Errorf("nat EDVS saving = %.1f%%, want ~0", saving*100)
	}
	if res.DVSStats.Transitions > 4 {
		t.Errorf("nat EDVS made %d transitions, want ~0", res.DVSStats.Transitions)
	}
}

// TestTDVSSavesMoreAtLowTraffic: TDVS savings shrink as traffic rises
// (paper §4.3), while low traffic lets the ladder sit at the bottom.
func TestTDVSSavesMoreAtLowTraffic(t *testing.T) {
	saving := func(level traffic.Level) float64 {
		base := shortCfg(t, workload.IPFwdr, level)
		noDVS, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Policy = TDVSPolicy(1000, 40000)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return 1 - res.Stats.AvgPowerW/noDVS.Stats.AvgPowerW
	}
	low, high := saving(traffic.LevelLow), saving(traffic.LevelHigh)
	if low <= high {
		t.Errorf("TDVS saving at low traffic (%.1f%%) not above high traffic (%.1f%%)", low*100, high*100)
	}
	if low < 0.25 {
		t.Errorf("TDVS saving at low traffic = %.1f%%, expected deep scaling", low*100)
	}
}

// TestIdleBimodality reproduces the §4.2 observation: per-window idle
// fractions of the receiving MEs concentrate below 5% or in a high mode,
// with little mass in between, and the transmitting MEs stay below 5%.
func TestIdleBimodality(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	cfg.Chip.IdleSampleWindow = cfg.Duration() / 100
	cfg.Formulas = IdleFormula(0) + "\n" + IdleFormula(4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, ok := res.LOCByName("idle_m0")
	if !ok || rx.Dist.Instances < 50 {
		t.Fatalf("rx idle distribution missing or thin: %+v", rx)
	}
	fr := rx.Dist.Hist.Fractions()
	// Mass below 10% plus mass above 20% should dominate; the middle band
	// (10–20%) should be thin.
	var low, mid, high float64
	for k, v := range fr {
		edge := rx.Dist.Hist.UpperEdge(k)
		switch {
		case edge <= 0.10:
			low += v
		case edge <= 0.20:
			mid += v
		default:
			high += v
		}
	}
	if low+high < 0.75 {
		t.Errorf("rx idle not bimodal: low=%.2f mid=%.2f high=%.2f", low, mid, high)
	}
	if high < 0.10 {
		t.Errorf("rx idle has no high mode (high=%.2f); memory pressure too weak", high)
	}
	tx, ok := res.LOCByName("idle_m4")
	if !ok {
		t.Fatal("tx idle distribution missing")
	}
	txFr := tx.Dist.Hist.Fractions()
	var txLow float64
	for k, v := range txFr {
		if tx.Dist.Hist.UpperEdge(k) <= 0.05 {
			txLow += v
		}
	}
	if txLow < 0.95 {
		t.Errorf("tx idle mass below 5%% = %.2f, want ~1 (transmission constrained)", txLow)
	}
}

// TestCombinedAblation: the combined policy the paper declined to build
// saves at least as much power as EDVS alone.
func TestCombinedAblation(t *testing.T) {
	base := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	run := func(p PolicyConfig) *RunResult {
		cfg := base
		cfg.Policy = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	edvs := run(EDVSPolicy(40000, 0.10))
	comb := run(CombinedPolicy(1000, 40000, 0.10))
	if comb.Stats.AvgPowerW > edvs.Stats.AvgPowerW*1.02 {
		t.Errorf("combined policy power %.3f W above EDVS %.3f W", comb.Stats.AvgPowerW, edvs.Stats.AvgPowerW)
	}
}

// runGrid runs the TDVS grid thresholds × windows over base the way every
// sweep does — TDVSGrid, TDVSPointConfig, one RunBatch — and returns the
// points with their outcomes.
func runGrid(base RunConfig, thresholds []float64, windows []int64, par int) ([]Point, []BatchResult) {
	points := TDVSGrid(thresholds, windows)
	cfgs := make([]RunConfig, len(points))
	for i, pt := range points {
		cfgs[i] = TDVSPointConfig(base, pt)
	}
	return points, RunBatch(cfgs, par, nil)
}

func TestSweepTDVS(t *testing.T) {
	base := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	base.Cycles = 500_000
	base.Formulas = StandardFormulas()
	points, res := runGrid(base, []float64{800, 1000}, []int64{20000, 40000}, 4)
	if len(res) != 4 {
		t.Fatalf("sweep returned %d results", len(res))
	}
	// Deterministic threshold-major ordering.
	want := []Point{{800, 20000}, {800, 40000}, {1000, 20000}, {1000, 40000}}
	for i, r := range res {
		if points[i] != want[i] {
			t.Fatalf("order[%d] = %+v, want %+v", i, points[i], want[i])
		}
		if r.Err != nil || r.Result == nil || len(r.Result.LOC) != 2 {
			t.Fatalf("point %+v missing results: %+v", want[i], r)
		}
		pol := r.Result.Config.Policy
		if got := (Point{pol.Param("top_threshold_mbps"), int64(pol.Param("window_cycles"))}); got != want[i] {
			t.Fatalf("result %d ran point %+v, want %+v", i, got, want[i])
		}
	}
	// Parallel equals serial.
	_, res2 := runGrid(base, []float64{800, 1000}, []int64{20000, 40000}, 1)
	for i := range res {
		if res2[i].Err != nil {
			t.Fatal(res2[i].Err)
		}
		a, b := res[i].Result.Stats, res2[i].Result.Stats
		if a.EnergyUJ != b.EnergyUJ || a.PktsSent != b.PktsSent {
			t.Fatalf("parallel/serial mismatch at %+v", points[i])
		}
	}
}

// TestOracleBeatsTDVSAtSmallWindows: the lookahead oracle must lose fewer
// packets than reactive TDVS at the thrash-prone 20k window — the point of
// the ablation.
func TestOracleBeatsTDVSAtSmallWindows(t *testing.T) {
	base := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	run := func(pol PolicyConfig) *RunResult {
		cfg := base
		cfg.Policy = pol
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tdvs, oracle := run(TDVSPolicy(1000, 20000)), run(OraclePolicy(1000, 20000))
	if oracle.Stats.LossFrac() >= tdvs.Stats.LossFrac() {
		t.Errorf("oracle loss %.4f not below TDVS loss %.4f",
			oracle.Stats.LossFrac(), tdvs.Stats.LossFrac())
	}
	if oracle.DVSStats.Transitions >= tdvs.DVSStats.Transitions {
		t.Errorf("oracle transitions %d not below TDVS %d",
			oracle.DVSStats.Transitions, tdvs.DVSStats.Transitions)
	}
	if oracle.MonitorFraction <= 0 {
		t.Error("oracle runs should charge the traffic monitor")
	}
}

// TestPacketReplay: an explicit packet schedule must override the traffic
// generator and reproduce exactly.
func TestPacketReplay(t *testing.T) {
	cfg := shortCfg(t, workload.NAT, traffic.LevelMedium)
	cfg.Cycles = 500_000
	g, err := traffic.NewGenerator(traffic.Config{MeanMbps: 400, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	pkts := g.GenerateUntil(cfg.Duration())
	cfg.Packets = pkts
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.PktsArrived != uint64(len(pkts)) {
		t.Fatalf("arrived %d of %d replayed packets", a.Stats.PktsArrived, len(pkts))
	}
	// The Traffic config must be ignored when Packets is set.
	cfg.Traffic.MeanMbps = 9999
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.EnergyUJ != b.Stats.EnergyUJ {
		t.Fatal("replayed runs differ despite identical packet schedules")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := shortCfg(t, workload.MD4, traffic.LevelMedium)
	cfg.Cycles = 500_000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.EnergyUJ != b.Stats.EnergyUJ || a.Stats.PktsSent != b.Stats.PktsSent {
		t.Fatal("identical configs produced different results")
	}
}

func TestRunPublishesThroughputCounters(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelLow)
	cfg.Cycles = 400_000
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["core_runs"]; got != 2 {
		t.Fatalf("core_runs = %d, want 2", got)
	}
	if got := s.Counters["core_ref_cycles"]; got != 800_000 {
		t.Fatalf("core_ref_cycles = %d, want 800000", got)
	}
	// The heap-operation counters must accumulate across both runs and be
	// consistent with each other: every push eventually pops (dispatch or
	// cancel) once the run drains.
	if s.Counters["sim_heap_pushes"] == 0 || s.Counters["sim_heap_swaps"] == 0 {
		t.Fatalf("heap counters missing from run snapshot: %+v", s.Counters)
	}
}

// Arrivals are streamed into the event queue, so its depth is bounded by
// the work in flight, not by the run's traffic: a run with well over a
// thousand arrivals keeps the queue a few dozen entries deep.
func TestEventQueueHoldsInFlightWorkOnly(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	cfg.Cycles = 3_000_000
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if n := s.Counters["npu_pkts_arrived"]; n <= 1000 {
		t.Fatalf("%d arrivals, want a run with more than 1000", n)
	}
	if hw := s.Gauges["sim_heap_high_water"]; hw >= 64 {
		t.Fatalf("event queue peaked at %v entries, want < 64", hw)
	}
}
