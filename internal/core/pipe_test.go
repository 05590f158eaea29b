package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nepdvs/internal/fault"
	"nepdvs/internal/npu"
	"nepdvs/internal/policy"
	"nepdvs/internal/sim"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// pipeCfg is a short TDVS run whose trace crosses many pipe batches and
// carries every Extra shape the chip emits besides fault codes: nil
// (packet events), one key under two names (pipeline instrs, idle
// idle_frac) and two keys (vfchange mhz, volts).
func pipeCfg(t *testing.T) RunConfig {
	t.Helper()
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelHigh)
	cfg.Cycles = 800_000
	cfg.Chip.EmitPipeline = true
	cfg.Chip.IdleSampleWindow = cfg.Duration() / 40
	cfg.Policy = TDVSPolicy(1000, 10_000)
	return cfg
}

// syncEvents drives cfg's chip directly, as runSim does for a policy run
// without a fault plan, with a collector as its synchronous sink.
func syncEvents(t *testing.T, cfg RunConfig) []trace.Event {
	t.Helper()
	progs, err := workload.Programs(cfg.Bench, cfg.WorkParams, cfg.Chip.NumMEs, cfg.Chip.RxMEs)
	if err != nil {
		t.Fatal(err)
	}
	fac, err := policy.Lookup(cfg.Policy.Name)
	if err != nil {
		t.Fatal(err)
	}
	chipCfg := cfg.Chip
	chipCfg.MonitorOverhead = fac.Monitor
	k := &sim.Kernel{}
	var col trace.Collector
	chip, err := npu.New(chipCfg, k, progs, &col)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.NewGenerator(cfg.Traffic)
	if err != nil {
		t.Fatal(err)
	}
	dur := cfg.Duration()
	pkts := gen.GenerateUntil(dur)
	if _, err := fac.Start(policy.Env{
		Kernel: k, Chip: chip, RefMHz: cfg.Chip.RefMHz, Duration: dur,
		Params: policy.Params(cfg.Policy.Params), Packets: pkts,
	}); err != nil {
		t.Fatal(err)
	}
	if err := chip.Inject(pkts); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(dur)
	chip.StopTickers()
	return col.Events
}

// TestExtraSinkMatchesSynchronous: the pipe delivers exactly the events a
// synchronous sink on the chip sees, Extra maps included, in order.
func TestExtraSinkMatchesSynchronous(t *testing.T) {
	cfg := pipeCfg(t)
	want := syncEvents(t, cfg)
	var col trace.Collector
	cfg.ExtraSink = &col
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(want) < 10*pipeBatchLen || len(want)%pipeBatchLen == 0 {
		t.Fatalf("reference trace has %d events; want many batches and a partial last one", len(want))
	}
	shapes := map[string]bool{}
	for _, ev := range want {
		switch {
		case ev.Extra == nil:
			shapes["nil"] = true
		default:
			for k := range ev.Extra {
				shapes[k] = true
			}
		}
	}
	for _, s := range []string{"nil", "instrs", "idle_frac", "mhz", "volts"} {
		if !shapes[s] {
			t.Errorf("reference trace has no %q events", s)
		}
	}
	if len(col.Events) != len(want) {
		t.Fatalf("ExtraSink saw %d events, the synchronous sink %d", len(col.Events), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(col.Events[i], want[i]) {
			t.Fatalf("event %d: ExtraSink saw %+v, the synchronous sink %+v", i, col.Events[i], want[i])
		}
	}
}

var errSinkFull = errors.New("sink full")

// failingSink counts its calls and fails (or panics) from call n on.
type failingSink struct {
	n, calls int
	panics   bool
}

func (s *failingSink) Emit(*trace.Event) error {
	s.calls++
	if s.calls < s.n {
		return nil
	}
	if s.panics {
		panic("sink exploded")
	}
	return errSinkFull
}

// TestExtraSinkErrorStopsDelivery: the sink's first error fails the run,
// and the sink is not called again after it.
func TestExtraSinkErrorStopsDelivery(t *testing.T) {
	for _, n := range []int{1, 3*pipeBatchLen + 7} {
		cfg := pipeCfg(t)
		s := &failingSink{n: n}
		cfg.ExtraSink = s
		res, err := Run(cfg)
		if res != nil || !errors.Is(err, errSinkFull) {
			t.Fatalf("n=%d: Run returned (%v, %v), want the sink's error", n, res, err)
		}
		if s.calls != n {
			t.Errorf("n=%d: sink called %d times", n, s.calls)
		}
	}
}

// TestExtraSinkPanicRecovered: a panic inside the sink becomes a *RunError
// instead of killing the process.
func TestExtraSinkPanicRecovered(t *testing.T) {
	cfg := pipeCfg(t)
	s := &failingSink{n: 2*pipeBatchLen + 1, panics: true}
	cfg.ExtraSink = s
	res, err := Run(cfg)
	var re *RunError
	if res != nil || !errors.As(err, &re) || !re.Panicked {
		t.Fatalf("Run returned (%v, %v), want a panicked *RunError", res, err)
	}
	if !strings.Contains(re.Value, "sink exploded") || re.Stack == "" {
		t.Errorf("RunError does not carry the sink's panic: %q", re.Value)
	}
	if s.calls != s.n {
		t.Errorf("sink called %d times after panicking on call %d", s.calls, s.n)
	}
}

// TestExtraSinkWatchdogAbort: a watchdog-aborted run with an ExtraSink
// returns the watchdog error and leaves no goroutine behind.
func TestExtraSinkWatchdogAbort(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := shortCfg(t, workload.IPFwdr, traffic.LevelLow)
	cfg.Cycles = 400_000
	cfg.Chip.EmitPipeline = true
	cfg.Timeout = 200 * time.Millisecond
	cfg.FaultPlan = &fault.Plan{
		Seed:   1,
		Faults: []fault.Fault{{Kind: fault.KindHang, OnsetCycle: 10_000}},
	}
	var count trace.CountingSink
	cfg.ExtraSink = &count
	if _, err := Run(cfg); !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("hung run returned %v, want the watchdog error", err)
	}
	if len(count.Counts) == 0 {
		t.Error("the sink saw no events before the hang")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the run, %d before", n, before)
	}
}
