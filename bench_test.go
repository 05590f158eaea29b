package nepdvs

// One benchmark per paper table/figure (plus the §4.2 idle study and the
// ablations): each bench regenerates the corresponding artifact end to end
// — simulation, LOC analysis, rendering. Benchmarks run at a reduced cycle
// count so `go test -bench=.` stays tractable; set -benchcycles to the
// paper's 8000000 to regenerate at full scale (the dvsexplore command does
// that by default).
//
// Three flags turn a bench run into a trajectory point on the canonical
// internal/perf schema (see DESIGN.md §14):
//
//	-benchperf BENCH_sim.json   per-benchmark ns/op, B/op, allocs/op and
//	                            domain throughput (simulated cycles/sec,
//	                            packets/sec), aggregated median/min over
//	                            -count repeats
//	-benchobs  BENCH_obs.json   the same, plus the aggregated run metrics
//	                            (run counts, failures, wall histogram)
//	-benchserve BENCH_serve.json  the serve benchmarks' samples plus the
//	                            service cache/jobs counters
//	                            (see serve_bench_test.go)
//
// Single-shot -benchtime=1x numbers are too noisy to gate on; `make
// bench-gate` runs the gate benches with -count=5 so the trajectory's
// medians mean something, then diffs against the committed baseline with
// cmd/benchdiff.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/experiments"
	"nepdvs/internal/loc"
	"nepdvs/internal/obs"
	"nepdvs/internal/perf"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

var (
	benchCycles = flag.Int64("benchcycles", 400_000, "reference cycles per simulation in benchmarks")
	benchObs    = flag.String("benchobs", "", "aggregate per-run metrics across all benchmarks into this trajectory JSON file (e.g. BENCH_obs.json)")
	benchPerf   = flag.String("benchperf", "", "write the canonical benchmark trajectory (internal/perf schema) to this JSON file (e.g. BENCH_sim.json)")
)

// perfRec collects per-invocation benchmark samples whenever any trajectory
// output was requested; nil keeps the measurement entirely out of plain
// bench runs.
var perfRec *perf.Recorder

// TestMain exists for the trajectory dump flags: with -benchperf (and/or
// -benchobs) every benchmark in the package records its host-time and
// domain-throughput samples into one recorder, written as a perf.Trajectory
// after the run. -benchobs additionally aggregates per-run metrics — run
// counts, failures and the wall-time histogram — into the trajectory's
// metrics block. The serve dump (see serve_bench_test.go) only runs when
// -benchserve was actually set; TestBenchServeDumpFlagOff pins that.
func TestMain(m *testing.M) {
	flag.Parse()
	if *benchPerf != "" || *benchObs != "" || *benchServe != "" {
		perfRec = perf.NewRecorder()
	}
	var reg *obs.Registry
	remove := func() {}
	if *benchObs != "" {
		reg = obs.NewRegistry()
		remove = experiments.ObserveRuns(reg, nil)
	}
	code := m.Run()
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		if code == 0 {
			code = 1
		}
	}
	if reg != nil {
		remove()
		snap := reg.Snapshot()
		if err := perf.NewTrajectory("obs", perfRec, &snap).WriteFile(*benchObs); err != nil {
			fail("benchobs", err)
		}
	}
	if *benchPerf != "" {
		if err := perf.NewTrajectory("sim", perfRec, nil).WriteFile(*benchPerf); err != nil {
			fail("benchperf", err)
		}
	}
	if *benchServe != "" {
		if err := writeBenchServe(perfRec); err != nil {
			fail("benchserve", err)
		}
	}
	os.Exit(code)
}

func opts() experiments.Options {
	return experiments.Options{Cycles: *benchCycles, Parallelism: 8, Seed: 1}
}

// sampleRun measures one benchmark invocation — wall time and the
// process-wide allocation delta around the b.N loop — for the trajectory
// recorder. A nil receiver (no trajectory output requested) makes both
// calls no-ops so plain bench runs stay unperturbed.
type sampleRun struct {
	n     int
	start time.Time
	mem   runtime.MemStats
}

// beginSample starts measuring an invocation of n operations; it returns
// nil when no trajectory output was requested.
func beginSample(n int) *sampleRun {
	if perfRec == nil {
		return nil
	}
	s := &sampleRun{n: n}
	// The cumulative TotalAlloc/Mallocs counters survive GC, so the delta
	// is the true allocation volume of the loop, not the live heap.
	runtime.ReadMemStats(&s.mem)
	s.start = time.Now()
	return s
}

// end records the finished invocation under the benchmark's name. reg,
// when non-nil, carries the invocation's simulation counters
// (core_ref_cycles, npu_pkts_arrived) from which the domain throughput is
// derived.
func (s *sampleRun) end(name string, reg *obs.Registry) {
	if s == nil {
		return
	}
	wall := time.Since(s.start)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := float64(s.n)
	p := perf.Sample{
		NsPerOp:     float64(wall.Nanoseconds()) / n,
		BytesPerOp:  float64(mem.TotalAlloc-s.mem.TotalAlloc) / n,
		AllocsPerOp: float64(mem.Mallocs-s.mem.Mallocs) / n,
	}
	if secs := wall.Seconds(); reg != nil && secs > 0 {
		p.SimCyclesPerSec = float64(reg.Counter("core_ref_cycles").Value()) / secs
		p.SimPacketsPerSec = float64(reg.Counter("npu_pkts_arrived").Value()) / secs
	}
	perfRec.Record(name, p)
}

func benchReport(b *testing.B, id string) {
	b.Helper()
	o := opts()
	var reg *obs.Registry
	if perfRec != nil {
		reg = obs.NewRegistry()
		o.Metrics = reg
	}
	s := beginSample(b.N)
	for i := 0; i < b.N; i++ {
		reports, err := experiments.Run(id, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 || reports[0].Body == "" {
			b.Fatalf("%s produced no output", id)
		}
	}
	s.end(b.Name(), reg)
}

// BenchmarkFig1 regenerates the IXP family table (Figure 1).
func BenchmarkFig1(b *testing.B) { benchReport(b, "fig1") }

// BenchmarkFig2 regenerates the day traffic distribution (Figure 2).
func BenchmarkFig2(b *testing.B) { benchReport(b, "fig2") }

// BenchmarkFig5 regenerates the VF/threshold ladder table (Figure 5).
func BenchmarkFig5(b *testing.B) { benchReport(b, "fig5") }

// BenchmarkFig6 regenerates the TDVS power distributions (Figure 6):
// 16 TDVS simulations plus the noDVS baseline, with the formula (2)
// analyzer attached to each.
func BenchmarkFig6(b *testing.B) { benchReport(b, "fig6") }

// BenchmarkFig7 regenerates the TDVS throughput distributions (Figure 7).
func BenchmarkFig7(b *testing.B) { benchReport(b, "fig7") }

// BenchmarkFig8 regenerates the 80th-percentile power surface (Figure 8).
func BenchmarkFig8(b *testing.B) { benchReport(b, "fig8") }

// BenchmarkFig9 regenerates the 80th-percentile throughput surface
// (Figure 9).
func BenchmarkFig9(b *testing.B) { benchReport(b, "fig9") }

// BenchmarkFig10 regenerates the EDVS power/throughput distributions
// (Figure 10).
func BenchmarkFig10(b *testing.B) { benchReport(b, "fig10") }

// BenchmarkFig11 regenerates the 4-benchmark × 3-traffic × 3-policy power
// comparison grid (Figure 11): 36 simulations.
func BenchmarkFig11(b *testing.B) { benchReport(b, "fig11") }

// BenchmarkIdleStudy regenerates the §4.2 idle-time distribution analysis.
func BenchmarkIdleStudy(b *testing.B) { benchReport(b, "idle") }

// BenchmarkAblationHysteresis measures the TDVS hysteresis ablation.
func BenchmarkAblationHysteresis(b *testing.B) { benchReport(b, "ablation-hysteresis") }

// BenchmarkAblationPenalty measures the VF-transition penalty sweep.
func BenchmarkAblationPenalty(b *testing.B) { benchReport(b, "ablation-penalty") }

// BenchmarkAblationCombined measures the combined-policy ablation.
func BenchmarkAblationCombined(b *testing.B) { benchReport(b, "ablation-combined") }

// BenchmarkPolicyTick measures the registry-policy hot path end to end: a
// PID-controlled simulation whose every control window exercises the
// policy framework's tick → queue read → actuation chain. The per-op cost
// gates the plugin subsystem's overhead against the committed baseline.
func BenchmarkPolicyTick(b *testing.B) {
	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Cycles = *benchCycles
	// A small window maximizes ticks per simulated cycle, keeping the
	// measurement dominated by the policy framework rather than the NPU.
	cfg.Policy = core.NewPolicy("pid", map[string]float64{"window_cycles": 10000})
	var reg *obs.Registry
	if perfRec != nil {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	s := beginSample(b.N)
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	s.end(b.Name(), reg)
}

// BenchmarkLOCCheck measures the streaming assertion checker with full
// witness capture over a large stored NPT1 binary trace: a checker that
// violates periodically (so provenance, worst-offender and density tracking
// all run) plus a windowed throughput check that stresses ring retention.
// The per-op cost gates the witness machinery's overhead on the trace-replay
// path against the committed baseline.
func BenchmarkLOCCheck(b *testing.B) {
	// Store the trace once: one forward event per 60 reference cycles,
	// scaled by -benchcycles like the simulation benches.
	n := int(*benchCycles / 60)
	path := filepath.Join(b.TempDir(), "bench.npt")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	bw := trace.NewBinaryWriter(f)
	ev := trace.Event{Name: "forward"}
	for k := 0; k < n; k++ {
		ev.Cycle = uint64(60 * k)
		ev.Time = float64(ev.Cycle) / 600
		ev.Energy = 0.1 * float64(k)
		ev.TotalPkt = uint64(k + 1)
		ev.TotalBit = uint64(k+1) * 8000
		if err := bw.Emit(&ev); err != nil {
			b.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		b.Fatal(err)
	}
	f.Close()

	fs, err := loc.ParseFile(`
spacing: cycle(forward[i+1]) - cycle(forward[i]) < 60;
tput: (total_bit(forward[i+100]) - total_bit(forward[i])) / 1000000 / ((time(forward[i+100]) - time(forward[i])) / 1000000) >= 40;
`)
	if err != nil {
		b.Fatal(err)
	}
	var cs []*loc.Compiled
	for _, fl := range fs {
		c, err := loc.Compile(fl, nil)
		if err != nil {
			b.Fatal(err)
		}
		cs = append(cs, c)
	}

	b.ReportAllocs()
	b.ResetTimer()
	s := beginSample(b.N)
	for i := 0; i < b.N; i++ {
		in, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		src, err := trace.OpenSource(in)
		if err != nil {
			b.Fatal(err)
		}
		results, err := loc.Run(src, loc.RunnerOptions{}, cs...)
		in.Close()
		if err != nil {
			b.Fatal(err)
		}
		// The spacing check violates on every instance: witness capture up
		// to the retention cap, worst/density on all of them.
		if results[0].Check.Total == 0 || len(results[0].Check.Violations) == 0 {
			b.Fatal("spacing check unexpectedly passed; the bench is not exercising witness capture")
		}
	}
	s.end(b.Name(), nil)
}

// BenchmarkTraceRecord measures the trace write path end to end: an
// ipfwdr×TDVS run with per-batch pipeline events on, every event written
// as text and as NPT1 (to io.Discard, so the disk stays out of the number).
// The per-op cost gates the chip's emitter and both writers against the
// committed baseline.
func BenchmarkTraceRecord(b *testing.B) {
	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Cycles = *benchCycles
	cfg.Chip.EmitPipeline = true
	cfg.Policy = core.TDVSPolicy(1000, 40000)
	var reg *obs.Registry
	if perfRec != nil {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	b.ReportAllocs()
	s := beginSample(b.N)
	for i := 0; i < b.N; i++ {
		tw, bw := trace.NewTextWriter(io.Discard), trace.NewBinaryWriter(io.Discard)
		cfg.ExtraSink = trace.MultiSink{tw, bw}
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			b.Fatal(err)
		}
		if err := bw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	s.end(b.Name(), reg)
}

// replayInput is the stored trace BenchmarkTraceReplay replays: one
// ipfwdr×TDVS run with per-batch pipeline events, recorded once per process
// in both formats.
var replayInput = sync.OnceValues(func() (replayTraces, error) {
	var r replayTraces
	cfg, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, 1)
	if err != nil {
		return r, err
	}
	cfg.Cycles = *benchCycles
	cfg.Chip.EmitPipeline = true
	cfg.Policy = core.TDVSPolicy(1000, 40000)
	var text, npt1 bytes.Buffer
	var count trace.CountingSink
	tw, bw := trace.NewTextWriter(&text), trace.NewBinaryWriter(&npt1)
	cfg.ExtraSink = trace.MultiSink{tw, bw, &count}
	if _, err := core.Run(cfg); err != nil {
		return r, err
	}
	if err := tw.Close(); err != nil {
		return r, err
	}
	if err := bw.Close(); err != nil {
		return r, err
	}
	for _, n := range count.Counts {
		r.events += n
	}
	r.text, r.npt1 = text.Bytes(), npt1.Bytes()
	for _, name := range []string{"standard.loc", "robustness.loc"} {
		src, err := os.ReadFile(filepath.Join("profiles", name))
		if err != nil {
			return r, err
		}
		fs, err := loc.ParseFile(string(src))
		if err != nil {
			return r, err
		}
		for _, f := range fs {
			c, err := loc.Compile(f, core.TraceSchema())
			if err != nil {
				return r, err
			}
			r.compiled = append(r.compiled, c)
		}
	}
	return r, nil
})

type replayTraces struct {
	text, npt1 []byte
	events     uint64
	compiled   []*loc.Compiled
}

// BenchmarkTraceReplay measures the check path over a stored trace: the
// replayInput recording, held in memory so the disk stays out of the
// number, read back by the text or NPT1 reader and checked against both
// shipped formula profiles (profiles/standard.loc and robustness.loc). Its
// mN_pipeline events carry instrs= extras, which BenchmarkLOCCheck's bare
// forward trace does not, so the per-op cost gates the trace readers.
func BenchmarkTraceReplay(b *testing.B) {
	in, err := replayInput()
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []struct {
		name string
		data []byte
	}{{"text", in.text}, {"npt1", in.npt1}} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			s := beginSample(b.N)
			for i := 0; i < b.N; i++ {
				src, err := trace.OpenSource(bytes.NewReader(f.data))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := loc.Run(src, loc.RunnerOptions{}, in.compiled...); err != nil {
					b.Fatal(err)
				}
			}
			s.end(b.Name(), nil)
			b.ReportMetric(float64(in.events)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkTDVSSweep measures the shared §4.1 sweep that Figures 6–9 are
// views of, end to end.
func BenchmarkTDVSSweep(b *testing.B) {
	o := opts()
	var reg *obs.Registry
	if perfRec != nil {
		reg = obs.NewRegistry()
		o.Metrics = reg
	}
	s := beginSample(b.N)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTDVSSweep(workload.IPFwdr, o); err != nil {
			b.Fatal(err)
		}
	}
	s.end(b.Name(), reg)
}
