package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nepdvs/internal/fault"
	"nepdvs/internal/obs"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// faultedCfg builds a short TDVS run carrying a generated fault plan.
func faultedCfg(t *testing.T, intensity float64) RunConfig {
	t.Helper()
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	cfg.Cycles = 600_000
	cfg.Policy = TDVSPolicy(1000, 40_000)
	plan, err := fault.GeneratePlan(fault.Spec{
		Seed:      42,
		Intensity: intensity,
		Cycles:    cfg.Cycles,
		Ports:     cfg.Chip.Ports,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = &plan
	return cfg
}

// faultedRun executes cfg with a binary trace sink, a collector and a fresh
// metrics registry, returning every determinism-relevant surface.
func faultedRun(t *testing.T, cfg RunConfig) (res *RunResult, traceBytes []byte, snapJSON []byte, events []trace.Event) {
	t.Helper()
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	col := &trace.Collector{}
	cfg.ExtraSink = trace.MultiSink{bw, col}
	cfg.Metrics = obs.NewRegistry()

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	var sj bytes.Buffer
	if err := cfg.Metrics.Snapshot().WriteJSON(&sj); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes(), sj.Bytes(), col.Events
}

// TestFaultDeterminism is the injection layer's core contract: the same
// config with the same fault plan yields byte-identical traces, metrics
// snapshots and manifest config blocks across runs.
func TestFaultDeterminism(t *testing.T) {
	cfg := faultedCfg(t, 0.8)

	res1, tr1, snap1, ev1 := faultedRun(t, cfg)
	res2, tr2, snap2, _ := faultedRun(t, cfg)

	if !bytes.Equal(tr1, tr2) {
		t.Errorf("faulted traces differ: %d vs %d bytes", len(tr1), len(tr2))
	}
	if !bytes.Equal(snap1, snap2) {
		t.Errorf("metrics snapshots differ:\n%s\nvs\n%s", snap1, snap2)
	}
	if res1.Faults == nil || res2.Faults == nil {
		t.Fatal("faulted run returned no fault stats")
	}
	if *res1.Faults != *res2.Faults {
		t.Errorf("fault stats differ: %+v vs %+v", *res1.Faults, *res2.Faults)
	}
	if res1.Faults.Armed == 0 {
		t.Error("intensity-0.8 plan armed no faults")
	}

	// Fault onsets must be visible to LOC formulas as trace events.
	var onsets int
	for _, ev := range ev1 {
		if ev.Name == trace.EvFault {
			onsets++
			if ev.Extra["kind"] == 0 {
				t.Errorf("fault event without kind annotation: %+v", ev)
			}
		}
	}
	if onsets == 0 {
		t.Error("no fault events in the trace")
	}

	// The manifest config block — the reproducibility surface — must embed
	// the plan and compare byte-identical across runs.
	m1 := obs.NewManifest("test", nil)
	m1.Config = res1.Config
	m2 := obs.NewManifest("test", nil)
	m2.Config = res2.Config
	cj1, err := m1.ConfigJSON()
	if err != nil {
		t.Fatal(err)
	}
	cj2, err := m2.ConfigJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cj1, cj2) {
		t.Error("manifest config blocks differ across identical runs")
	}
	if !bytes.Contains(cj1, []byte("FaultPlan")) {
		t.Error("manifest config block does not embed the fault plan")
	}
}

// TestFaultsPerturbTheRun: injection must actually reach the model — a
// sustained port-drop fault shows up in both the injector's stats and the
// chip's packet accounting, and drops are traced.
func TestFaultsPerturbTheRun(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	cfg.Cycles = 600_000
	cfg.FaultPlan = &fault.Plan{
		Seed: 1,
		Faults: []fault.Fault{
			{Kind: fault.KindPortDrop, Unit: fault.PortUnit(0), OnsetCycle: 10_000, DurationCycles: 500_000},
		},
	}
	col := &trace.Collector{}
	cfg.ExtraSink = col
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.PortDropped == 0 {
		t.Fatal("port-drop fault dropped no packets")
	}
	if res.Stats.FaultDropped != res.Faults.PortDropped {
		t.Errorf("chip counted %d fault drops, injector %d", res.Stats.FaultDropped, res.Faults.PortDropped)
	}
	var dropEvents uint64
	for _, ev := range col.Events {
		if ev.Name == trace.EvFaultDrop {
			dropEvents++
		}
	}
	if dropEvents != res.Faults.PortDropped {
		t.Errorf("%d fault_drop trace events for %d drops", dropEvents, res.Faults.PortDropped)
	}
}

// TestRunPanicRecovered: an injected panic becomes an ordinary *RunError
// instead of killing the process.
func TestRunPanicRecovered(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelLow)
	cfg.Cycles = 400_000
	cfg.FaultPlan = &fault.Plan{
		Seed:   1,
		Faults: []fault.Fault{{Kind: fault.KindPanic, OnsetCycle: 50_000}},
	}
	res, err := Run(cfg)
	if res != nil || err == nil {
		t.Fatalf("panicking run returned (%v, %v)", res, err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not a *RunError: %v", err, err)
	}
	if !re.Panicked {
		t.Error("RunError.Panicked = false for a recovered panic")
	}
	if !strings.Contains(re.Value, "fault") {
		t.Errorf("panic value %q does not identify the injected fault", re.Value)
	}
	if re.Stack == "" {
		t.Error("no stack captured at recovery")
	}
}

// TestRunTimeoutWatchdog: an injected livelock cannot outlast the run's
// wall-clock budget — the watchdog interrupts the kernel and the run fails
// with a deadline error.
func TestRunTimeoutWatchdog(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelLow)
	cfg.Cycles = 400_000
	cfg.Timeout = 300 * time.Millisecond
	cfg.FaultPlan = &fault.Plan{
		Seed:   1,
		Faults: []fault.Fault{{Kind: fault.KindHang, OnsetCycle: 10_000}},
	}
	start := time.Now()
	res, err := Run(cfg)
	if res != nil || err == nil {
		t.Fatalf("hung run returned (%v, %v)", res, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error does not wrap DeadlineExceeded: %v", err)
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Errorf("error does not mention the watchdog: %v", err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Errorf("watchdog took %v to fire", wall)
	}
}

// TestRunTimeoutHarmless: a generous timeout must not perturb a healthy run.
func TestRunTimeoutHarmless(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelLow)
	cfg.Cycles = 200_000

	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Timeout = time.Hour
	bounded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.EnergyUJ != bounded.Stats.EnergyUJ || plain.Stats.PktsSent != bounded.Stats.PktsSent {
		t.Error("timeout-bounded run diverged from the plain run")
	}
}

// TestRunContextCancel: an already-cancelled context aborts the run.
func TestRunContextCancel(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelLow)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, cfg)
	if res != nil || err == nil {
		t.Fatalf("cancelled run returned (%v, %v)", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
}

// TestSweepSurvivesFaultedPoints is the resilience contract: one panicking
// point and one hanging point must not take the sweep down — the other
// points complete and both failures are recorded with their causes.
func TestSweepSurvivesFaultedPoints(t *testing.T) {
	base := shortCfg(t, workload.IPFwdr, traffic.LevelMedium)
	base.Cycles = 400_000
	base.Timeout = time.Second
	base.FaultPlan = &fault.Plan{
		Seed: 1,
		Faults: []fault.Fault{
			{Kind: fault.KindPanic, OnsetCycle: 20_000,
				Only: fault.Scope{ThresholdMbps: 800, WindowCycles: 20_000}},
			{Kind: fault.KindHang, OnsetCycle: 20_000,
				Only: fault.Scope{ThresholdMbps: 1000, WindowCycles: 40_000}},
		},
	}

	results, err := SweepTDVS(base, []float64{800, 1000}, []int64{20_000, 40_000}, 4)
	if err == nil {
		t.Fatal("sweep with two doomed points reported no error")
	}
	if !strings.Contains(err.Error(), "2 of 4") {
		t.Errorf("aggregate error does not account for the damage: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d sweep results, want 4", len(results))
	}

	var ok, failed int
	for _, r := range results {
		switch {
		case r.Result != nil && r.Err == nil:
			ok++
		case r.Result == nil && r.Err != nil:
			failed++
		default:
			t.Errorf("point %+v has inconsistent result/err", r.Point)
		}
	}
	if ok != 2 || failed != 2 {
		t.Fatalf("sweep completed %d and failed %d points, want 2 and 2", ok, failed)
	}

	// Threshold-major order: point 0 is (800, 20k) — the panic — and
	// point 3 is (1000, 40k) — the hang.
	var re *RunError
	if !errors.As(results[0].Err, &re) || !re.Panicked {
		t.Errorf("panicked point error = %v, want a panicked *RunError", results[0].Err)
	}
	if !errors.Is(results[3].Err, context.DeadlineExceeded) {
		t.Errorf("hung point error = %v, want a deadline error", results[3].Err)
	}
}

// TestSweepCancelSkipsUnstarted: cancelling a sweep must keep points not
// yet started out of the simulator entirely — no workload assembly, no
// run hook, no cache lookup — and record the cancellation as their error.
func TestSweepCancelSkipsUnstarted(t *testing.T) {
	base := shortCfg(t, workload.IPFwdr, traffic.LevelMedium)
	base.Cycles = 100_000
	var runs atomic.Int32
	SetRunHook(func(time.Duration, error) { runs.Add(1) })
	defer SetRunHook(nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results, err := Sweep(ctx, base, []float64{800, 1000}, []int64{20_000, 40_000}, 1,
		func(SweepResult) { cancel() })
	if err == nil || !strings.Contains(err.Error(), "3 of 4") {
		t.Fatalf("sweep error = %v, want 3 of 4 points failed", err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("canceled sweep ran %d simulations, want 1", n)
	}
	if len(results) != 4 || results[0].Result == nil || results[0].Err != nil {
		t.Fatalf("first point should have completed: %+v", results)
	}
	for _, r := range results[1:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("point %+v error = %v, want context.Canceled", r.Point, r.Err)
		}
		if r.Result != nil || r.Retries != 0 {
			t.Errorf("skipped point %+v carries a result or retries", r.Point)
		}
		if want := fmt.Sprintf("core: point %+v: context canceled", r.Point); r.Err == nil || r.Err.Error() != want {
			t.Errorf("skipped point error = %v, want %q", r.Err, want)
		}
	}
}

// TestRunBatchSurvivesFailedRun: a run that still fails after its retry
// records its error in place while the rest of the batch completes.
func TestRunBatchSurvivesFailedRun(t *testing.T) {
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelLow)
	cfg.Cycles = 300_000
	cfg.FaultPlan = &fault.Plan{
		Seed: 1,
		Faults: []fault.Fault{
			{Kind: fault.KindPanic, OnsetCycle: 20_000, Only: fault.Scope{Seed: 2}},
		},
	}
	cfgs := make([]RunConfig, 3)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Traffic.Seed = int64(i + 1)
	}
	rs := RunBatch(context.Background(), cfgs, 3, nil)
	for i, r := range rs {
		if (r.Result == nil) == (r.Err == nil) {
			t.Errorf("run %d has inconsistent result/err: %+v", i, r)
		}
		if want := i == 1; (r.Err != nil) != want {
			t.Errorf("run %d failed = %v, want %v", i, r.Err != nil, want)
		}
	}
	var re *RunError
	if !errors.As(rs[1].Err, &re) || !re.Panicked {
		t.Errorf("seed-2 failure = %v, want a panicked *RunError", rs[1].Err)
	}
	if rs[1].Retries != 1 || rs[0].Retries != 0 {
		t.Errorf("retries = %d/%d, want 0 for a clean run and 1 for the failed one", rs[0].Retries, rs[1].Retries)
	}
}
