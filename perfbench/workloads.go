package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/experiments"
	"nepdvs/internal/loc"
	"nepdvs/internal/obs"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// paperCycles is the paper's run length: 8·10⁶ reference cycles.
const paperCycles = 8_000_000

// A workload is a fixed mix of ops. A round runs every op of the mix once,
// so the ops of any whole number of rounds form the same multiset.
type workloadRunner interface {
	// setup makes the workload's inputs. It runs once per set-up pass,
	// before the warm-up op.
	setup(b *bench) error
	// warmup runs one untimed op, with its output check.
	warmup(b *bench) error
	// round runs one round, counting each op with b.countOp, and returns
	// the round's work time: its ops plus any rendering, without output
	// checks.
	round(b *bench) (time.Duration, error)
}

// workloadDef names a workload's runner and the nominal host time of one
// round on a 2-core x86-64 box, which fixes how many whole rounds fit in
// --seconds.
type workloadDef struct {
	roundSeconds float64
	make         func() workloadRunner
}

var workloads = map[string]workloadDef{
	"sweep":  {5.6, func() workloadRunner { return &sweep{} }},
	"record": {4.0, func() workloadRunner { return &record{} }},
	"check":  {0.28, func() workloadRunner { return &check{} }},
}

// sweep is the Figure 6–9 design-space exploration a designer waits on:
// experiments.RunTDVSSweep on ipfwdr at paper scale, then the four views.
// An op is one simulation of the sweep.
type sweep struct {
	warm core.RunConfig
	// want maps each figure to its expected .dat text: the committed
	// results at seed 1 and paper scale, else the first round's output.
	want map[string]string
}

var sweepFigs = []struct {
	id   string
	view func(*experiments.TDVSSweepData) (experiments.Report, error)
}{
	{"fig6", experiments.Fig6}, {"fig7", experiments.Fig7},
	{"fig8", experiments.Fig8}, {"fig9", experiments.Fig9},
}

func (s *sweep) setup(b *bench) error {
	base, err := core.DefaultRunConfig(workload.IPFwdr, traffic.LevelHigh, b.seed)
	if err != nil {
		return err
	}
	base.Cycles = b.cycles
	base.Formulas = core.StandardFormulas()
	s.warm = core.TDVSPointConfig(base, core.Point{ThresholdMbps: experiments.Thresholds[0], WindowCycles: experiments.Windows[0]})
	if err := b.inputs(s.warm); err != nil {
		return err
	}
	s.want = nil
	if b.seed == 1 && b.cycles == paperCycles {
		s.want = map[string]string{}
		for _, f := range sweepFigs {
			data, err := os.ReadFile(filepath.Join(b.root, "results", f.id+".dat"))
			if err != nil {
				return fmt.Errorf("sweep expected output: %w", err)
			}
			s.want[f.id] = string(data)
		}
	}
	return nil
}

func (s *sweep) warmup(b *bench) error {
	_, err := core.Run(s.warm)
	return err
}

func (s *sweep) round(b *bench) (time.Duration, error) {
	var mu sync.Mutex
	var runs []time.Duration
	// Sweep workers call the hook one after another at Parallelism 1; the
	// lock orders their writes for the race detector.
	core.SetRunHook(func(d time.Duration, _ error) {
		end := clock()
		mu.Lock()
		defer mu.Unlock()
		runs = append(runs, d)
		if b.t != nil {
			b.t.add("core.run", b.ops+len(runs)-1, end.Add(-d), end)
		}
	})
	defer core.SetRunHook(nil)

	reg := obs.NewRegistry()
	start := clock()
	id := b.t.begin("experiments.sweep", -1)
	data, err := experiments.RunTDVSSweep(workload.IPFwdr, experiments.Options{
		Cycles: b.cycles, Parallelism: 1, Seed: b.seed, Metrics: reg,
	})
	b.t.end(id)
	id = b.t.begin("experiments.render", -1)
	got := map[string]string{}
	for _, f := range sweepFigs {
		if err != nil {
			break
		}
		var r experiments.Report
		r, err = f.view(data)
		got[f.id] = fmt.Sprintf("# %s\n%s", r.Title, r.Body)
	}
	b.t.end(id)
	work := clock().Sub(start)

	if err == nil {
		err = s.check(got)
	}
	for _, d := range runs {
		b.countOp(d, err == nil)
	}
	snap := reg.Snapshot()
	b.simCycles += float64(len(runs)) * float64(b.cycles)
	b.events += float64(emittedEvents(snap))
	if b.t != nil && data != nil {
		b.acc.simCounts(snap)
		b.acc.locCounts(data.NoDVS.LOC)
		for _, r := range data.Results {
			b.acc.locCounts(r.Result.LOC)
		}
		b.acc["ops"] += float64(len(runs))
	}
	return work, err
}

// check compares one round's figures with the expected text, or adopts
// them as the expectation for later rounds after a shape check: Figures 8
// and 9 hold one row per design point.
func (s *sweep) check(got map[string]string) error {
	if s.want == nil {
		points := len(experiments.Thresholds) * len(experiments.Windows)
		for _, id := range []string{"fig8", "fig9"} {
			if n := dataRows(got[id]); n != points {
				return fmt.Errorf("sweep: %s has %d design points, want %d", id, n, points)
			}
		}
		s.want = got
		return nil
	}
	for _, f := range sweepFigs {
		if got[f.id] != s.want[f.id] {
			return fmt.Errorf("sweep: %s differs from the expected output", f.id)
		}
	}
	return nil
}

// dataRows counts the non-comment, non-blank lines of a .dat text.
func dataRows(text string) int {
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// emittedEvents is the number of trace events the runs behind snap sent to
// their live analyzers, from the runs' published counters: one forward per
// sent packet, one fifo per queued packet, one drop per RFIFO drop and one
// vfchange per ME transition. It holds for runs without pipeline events,
// idle sampling or faults, as the sweep's are.
func emittedEvents(snap obs.Snapshot) int64 {
	var n uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "npu_me") && strings.HasSuffix(name, "_vf_changes") {
			n += v
		}
	}
	c := snap.Counters
	return int64(n + c["npu_pkts_sent"] + c["npu_pkts_queued"] + c["npu_pkts_dropped"])
}

// recordMix is the record workload's op mix: each ME program once, each
// under another registry policy.
var recordMix = []struct {
	bench  workload.Name
	policy core.PolicyConfig
}{
	{workload.IPFwdr, core.TDVSPolicy(1000, 40000)},
	{workload.NAT, core.EDVSPolicy(40000, 0.1)},
	{workload.MD4, core.NewPolicy("pid", nil)},
	{workload.URL, core.NewPolicy("psm", nil)},
}

// recordConfig is one paper-scale run of the mix with pipeline events on.
func recordConfig(b *bench, k int) (core.RunConfig, error) {
	m := recordMix[k]
	cfg, err := core.DefaultRunConfig(m.bench, traffic.LevelHigh, b.seed)
	if err != nil {
		return core.RunConfig{}, err
	}
	cfg.Cycles = b.cycles
	cfg.Chip.EmitPipeline = true
	cfg.Policy = m.policy
	return cfg, b.inputs(cfg)
}

// recorded is the outcome of one recording run.
type recorded struct {
	work    time.Duration
	events  int64
	snap    obs.Snapshot
	results []loc.Result
}

// recordRun simulates cfg while writing its trace as text and NPT1 and
// checking the compiled formulas live, all through benchmark-owned sinks.
// The work time covers the simulation and closing the trace files.
func recordRun(b *bench, cfg core.RunConfig, compiled []*loc.Compiled, textPath, binPath string) (rec recorded, err error) {
	tf, err := os.Create(textPath)
	if err != nil {
		return rec, err
	}
	defer tf.Close()
	bf, err := os.Create(binPath)
	if err != nil {
		return rec, err
	}
	defer bf.Close()
	runner, err := loc.NewRunner(loc.RunnerOptions{}, compiled...)
	if err != nil {
		return rec, err
	}
	tw, bw := trace.NewTextWriter(tf), trace.NewBinaryWriter(bf)
	sinks := []trace.Sink{tw, bw, runner}
	var timed *timedSinks
	var count countSink
	if b.t != nil {
		timed = newTimedSinks([]string{"text", "npt1", "loc"}, sinks)
		cfg.ExtraSink = timed
	} else {
		cfg.ExtraSink = append(trace.MultiSink(sinks), &count)
	}
	reg := obs.NewRegistry()
	cfg.Metrics = reg

	start := clock()
	id := b.t.begin("core.run", b.ops)
	_, err = core.Run(cfg)
	b.t.end(id)
	id = b.t.begin("trace.close", b.ops)
	for _, c := range []interface{ Close() error }{tw, bw, tf, bf} {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	b.t.end(id)
	rec.work = clock().Sub(start)
	if err != nil {
		return rec, err
	}
	if rec.results, err = runner.Results(); err != nil {
		return rec, err
	}
	rec.snap = reg.Snapshot()
	rec.events = count.n
	if timed != nil {
		rec.events = timed.events
		b.acc["write.text_s"] += timed.time("text").Seconds()
		b.acc["write.npt1_s"] += timed.time("npt1").Seconds()
		b.acc["loc.live_s"] += timed.time("loc").Seconds()
		b.acc["sink_s"] += timed.all().Seconds()
		b.acc["write.events"] += float64(timed.events)
		for _, p := range []string{textPath, binPath} {
			st, err := os.Stat(p)
			if err != nil {
				return rec, err
			}
			b.acc["trace.bytes_written"] += float64(st.Size())
		}
		b.acc.simCounts(rec.snap)
		b.acc.locCounts(rec.results)
	}
	return rec, nil
}

// record runs the mix, writing every trace in both formats and checking
// both formula profiles live. An op is one run.
type record struct {
	compiled []*loc.Compiled
	configs  []core.RunConfig
}

func (r *record) setup(b *bench) (err error) {
	if r.compiled, err = b.compileProfiles(); err != nil {
		return err
	}
	r.configs = r.configs[:0]
	for k := range recordMix {
		cfg, err := recordConfig(b, k)
		if err != nil {
			return err
		}
		r.configs = append(r.configs, cfg)
	}
	return nil
}

func (r *record) warmup(b *bench) error {
	_, err := r.op(b, r.configs[0])
	return err
}

func (r *record) round(b *bench) (time.Duration, error) {
	var work time.Duration
	for _, cfg := range r.configs {
		id := b.t.begin(spanOp, b.ops)
		d, err := r.op(b, cfg)
		b.t.end(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: record %s/%s: %v\n", cfg.Bench, cfg.Policy, err)
		}
		work += d
		b.countOp(d, err == nil)
		b.simCycles += float64(cfg.Cycles)
	}
	return work, nil
}

// op records one run and checks both trace files: read back, each holds
// exactly the events the sinks saw, and one forward event per sent packet.
func (r *record) op(b *bench, cfg core.RunConfig) (time.Duration, error) {
	textPath, binPath := filepath.Join(b.tmp, "record.trace"), filepath.Join(b.tmp, "record.npt")
	rec, err := recordRun(b, cfg, r.compiled, textPath, binPath)
	if err != nil {
		return rec.work, err
	}
	b.events += float64(rec.events)
	if b.t != nil {
		b.acc["ops"]++
	}
	sent := rec.snap.Counters["npu_pkts_sent"]
	for _, p := range []string{textPath, binPath} {
		var sum *trace.Summary
		err := readTrace(p, func(src trace.Source) (err error) {
			sum, err = trace.Summarize(src)
			return err
		})
		if err != nil {
			return rec.work, err
		}
		if int64(sum.Events) != rec.events || sum.ByName[trace.EvForward] != sent {
			return rec.work, fmt.Errorf("%s: %d events, %d forwarded; the run emitted %d and sent %d packets",
				filepath.Base(p), sum.Events, sum.ByName[trace.EvForward], rec.events, sent)
		}
	}
	return rec.work, nil
}

// readTrace opens a stored trace in either format and hands its source to
// fn.
func readTrace(path string, fn func(trace.Source) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := trace.OpenSource(f)
	if err != nil {
		return err
	}
	return fn(src)
}

// check replays one stored paper-scale pipeline trace, in both formats,
// through both formula profiles. An op is one replay of both files; no
// simulator code runs in the timed phase.
type check struct {
	compiled  []*loc.Compiled
	text, bin string
	events    int64
	cycles    int64
	// want is the assertion report the live checker produced while the
	// trace was recorded.
	want []byte
}

func (c *check) setup(b *bench) (err error) {
	if c.compiled, err = b.compileProfiles(); err != nil {
		return err
	}
	cfg, err := recordConfig(b, 0)
	if err != nil {
		return err
	}
	c.text, c.bin = filepath.Join(b.tmp, "check.trace"), filepath.Join(b.tmp, "check.npt")
	// The recording is input preparation, not a measured layer call.
	t := b.t
	b.t = nil
	rec, err := recordRun(b, cfg, c.compiled, c.text, c.bin)
	b.t = t
	if err != nil {
		return err
	}
	c.events, c.cycles = rec.events, cfg.Cycles
	c.want, err = loc.BuildReport(rec.results).JSON()
	return err
}

func (c *check) warmup(b *bench) error {
	_, err := c.op(b)
	return err
}

func (c *check) round(b *bench) (time.Duration, error) {
	id := b.t.begin(spanOp, b.ops)
	d, err := c.op(b)
	b.t.end(id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check: %v\n", err)
	}
	b.countOp(d, err == nil)
	b.simCycles += 2 * float64(c.cycles)
	b.events += 2 * float64(c.events)
	return d, nil
}

// op replays both files and checks that each replay's assertion report is
// byte-identical to the live one. Traced rounds first drain each file
// without a checker, which splits replay time into reading and checking.
func (c *check) op(b *bench) (time.Duration, error) {
	var work time.Duration
	for _, f := range []struct{ format, path string }{{"text", c.text}, {"npt1", c.bin}} {
		start := clock()
		if b.t != nil {
			id := b.t.begin("trace.drain."+f.format, b.ops)
			n, err := drain(f.path)
			b.t.end(id)
			if err != nil {
				return 0, err
			}
			if n != c.events {
				return 0, fmt.Errorf("%s trace drained %d events, recorded %d", f.format, n, c.events)
			}
		}
		var results []loc.Result
		id := b.t.begin("loc.run."+f.format, b.ops)
		err := readTrace(f.path, func(src trace.Source) (err error) {
			results, err = loc.Run(src, loc.RunnerOptions{}, c.compiled...)
			return err
		})
		b.t.end(id)
		work += clock().Sub(start)
		if err != nil {
			return work, err
		}
		if b.t != nil && f.format == "text" {
			b.acc.locCounts(results)
		}
		got, err := loc.BuildReport(results).JSON()
		if err != nil {
			return work, err
		}
		if !bytes.Equal(got, c.want) {
			return work, fmt.Errorf("%s replay report differs from the live report", f.format)
		}
	}
	if b.t != nil {
		b.acc["ops"]++
		b.acc["read.events"] += float64(c.events)
	}
	return work, nil
}

// drain reads a stored trace to the end without checking it.
func drain(path string) (n int64, err error) {
	err = readTrace(path, func(src trace.Source) error {
		for {
			_, ok, err := src.Next()
			if err != nil || !ok {
				return err
			}
			n++
		}
	})
	return n, err
}
