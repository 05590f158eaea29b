package main

import (
	"strings"
	"testing"

	"nepdvs/internal/core"
	"nepdvs/internal/experiments"
	"nepdvs/internal/obs"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// testCycles keeps each simulation short; at this length the sweep's
// figures differ from the committed paper-scale results, so the sweep
// checks its later rounds against its first.
const testCycles = 400_000

func testOptions(t *testing.T, name string, traced bool) options {
	return options{
		workload: name, seed: 1, seconds: 1, trace: traced,
		root: "..", workdir: t.TempDir(), cycles: testCycles,
	}
}

// deterministicLayers are the per-layer counts that derive from simulation
// state and the trace bytes alone.
var deterministicLayers = []string{
	"sim.events_dispatched", "sim.heap_pushes",
	"npu.instr_retired", "npu.pkts_arrived", "npu.pkts_dropped", "npu.sdram_requests", "npu.stall_cycles",
	"dvs.windows", "dvs.transitions",
	"loc.instances", "loc.violations", "loc.window_peak",
	"trace.bytes_written",
}

func TestTracedRunsRepeat(t *testing.T) {
	for _, name := range []string{"sweep", "record", "check"} {
		t.Run(name, func(t *testing.T) {
			var first *result
			for i := 0; i < 2; i++ {
				res, err := run(testOptions(t, name, true))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("run %d: correct %v, %d of %d ops failed", i, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(perLayer) {
					t.Fatalf("traced run printed %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
				}
				// Layer spans lie inside the rounds' work time.
				if f := res.Metrics["bench.unattributed_frac"].Value; f < 0 || f >= 1 {
					t.Errorf("unattributed fraction %v outside [0, 1)", f)
				}
				if self := res.Metrics["core.sim_self_s"].Value; self < 0 || self > res.Metrics["core.run_s"].Value {
					t.Errorf("simulator self time %v outside [0, core.run_s]", self)
				}
				if first == nil {
					first = res
					continue
				}
				for _, k := range deterministicLayers {
					if got, want := res.Metrics[k].Value, first.Metrics[k].Value; got != want {
						t.Errorf("%s = %v, first run %v", k, got, want)
					}
				}
			}
			if first.Metrics["loc.instances"].Value == 0 {
				t.Error("no checker instances counted")
			}
		})
	}
}

func TestEndToEndMetrics(t *testing.T) {
	res, err := run(testOptions(t, "record", false))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != len(recordMix) {
		t.Fatalf("correct %v after %d ops, want one round of %d", res.Correct, res.Attempted, len(recordMix))
	}
	for _, k := range []string{"setup_s", "wall_s", "run_s_p50", "sim_mcycles_per_s", "mevents_per_s", "peak_rss_mb"} {
		if m, ok := res.Metrics[k]; !ok || m.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value", k, m)
		}
	}
}

// A corrupted expectation turns every op it covers into a counted failure.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, tc := range []struct {
		name    string
		w       workloadRunner
		corrupt func(workloadRunner)
		ops     int
	}{
		{"sweep", &sweep{}, func(w workloadRunner) {
			s := w.(*sweep)
			s.want = map[string]string{"fig6": "corrupted", "fig7": "", "fig8": "", "fig9": ""}
		}, 1 + len(experiments.Thresholds)*len(experiments.Windows)},
		{"check", &check{}, func(w workloadRunner) {
			c := w.(*check)
			c.want = []byte(strings.Replace(string(c.want), `"pass"`, `"fail"`, 1))
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := newBench(testOptions(t, tc.name, false))
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if _, err := b.setUp(tc.w); err != nil {
				t.Fatal(err)
			}
			b.runRounds(tc.w, 1)
			if b.failed != 0 {
				t.Fatalf("%d ops failed before corruption", b.failed)
			}
			tc.corrupt(tc.w)
			b.runRounds(tc.w, 1)
			if b.failed != tc.ops || b.ops != 2*tc.ops {
				t.Fatalf("after corruption %d of %d ops failed, want %d of %d", b.failed, b.ops, tc.ops, 2*tc.ops)
			}
		})
	}
}

// emittedEvents must count exactly the trace events the sweep's runs emit.
func TestEmittedEventsMatchesSink(t *testing.T) {
	base, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 1)
	if err != nil {
		t.Fatal(err)
	}
	base.Cycles = testCycles
	base.Formulas = core.StandardFormulas()
	for _, cfg := range []core.RunConfig{base, core.TDVSPointConfig(base, core.Point{ThresholdMbps: 800, WindowCycles: 20000})} {
		var count countSink
		reg := obs.NewRegistry()
		cfg.ExtraSink, cfg.Metrics = &count, reg
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		if got := emittedEvents(reg.Snapshot()); got != count.n {
			t.Errorf("%s: counted %d events from the run's counters, the sink saw %d", cfg.Policy, got, count.n)
		}
	}
}
