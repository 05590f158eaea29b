// Command perfbench is the repository's end-to-end benchmark. One process,
// driven by one goroutine, runs one workload through the library's public
// functions — never through the CLI tools — and prints its metrics as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Without --trace it prints the end-to-end metrics; with --trace 1 it
// alternates traced and untraced rounds and prints the per-layer metrics
// instead, dumping the traced rounds' spans to the work directory.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload sweep|record|check --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads, the metrics and how to
// read a traced run.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/loc"
	"nepdvs/internal/npu"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// processStart is read at package initialization, before main: the first
// set-up pass is measured from here.
var processStart = clock()

// setupPasses is how many times a run sets up; setup_s is their median.
const setupPasses = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// root is the repository checkout holding profiles/ and results/.
	root string
	// workdir holds the trace files (removed at exit) and the span dumps.
	workdir string
	// cycles is every simulation's run length in reference cycles.
	cycles int64
}

// bench is one benchmark process's state: its options, the current tracer
// and the timed phase's tallies.
type bench struct {
	options
	// t is the tracer while a traced round or set-up pass runs, else nil;
	// tr is the run's tracer (nil when untraced).
	t, tr *tracer
	acc   layerAcc
	// tmp is the process's private directory for trace files.
	tmp string

	ops       int
	failed    int
	opTimes   []time.Duration
	simCycles float64
	events    float64
}

// countOp tallies one timed op.
func (b *bench) countOp(d time.Duration, ok bool) {
	b.ops++
	b.opTimes = append(b.opTimes, d)
	if !ok {
		b.failed++
	}
}

// inputs times the two input builders of a run config, traffic generation
// and ME program assembly, which core.Run calls again itself. Traced runs
// only.
func (b *bench) inputs(cfg core.RunConfig) error {
	if b.t == nil {
		return nil
	}
	id := b.t.begin("traffic.gen", -1)
	gen, err := traffic.NewGenerator(cfg.Traffic)
	if err == nil {
		gen.GenerateUntil(cfg.Duration())
	}
	b.t.end(id)
	if err != nil {
		return err
	}
	id = b.t.begin("workload.assemble", -1)
	_, err = workload.Programs(cfg.Bench, cfg.WorkParams, cfg.Chip.NumMEs, cfg.Chip.RxMEs)
	b.t.end(id)
	b.acc["configs"]++
	return err
}

// compileProfiles loads the committed formula profiles, gates them on the
// static analyzer and compiles them against the simulator's trace schema.
func (b *bench) compileProfiles() ([]*loc.Compiled, error) {
	id := b.t.begin("loc.compile", -1)
	defer b.t.end(id)
	schema := core.EventSchemaFor(npu.DefaultConfig())
	var out []*loc.Compiled
	for _, name := range []string{"standard.loc", "robustness.loc"} {
		path := filepath.Join(b.root, "profiles", name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if diags, parsed := loc.AnalyzeFile(string(src), schema); !parsed || len(diags) > 0 {
			return nil, fmt.Errorf("%s: %d static-analysis findings", path, len(diags))
		}
		fs, err := loc.ParseFile(string(src))
		if err != nil {
			return nil, err
		}
		for _, f := range fs {
			c, err := loc.Compile(f, core.TraceSchema())
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newBench validates the options and makes the process's private trace
// directory; close removes it.
func newBench(o options) (*bench, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	b := &bench{options: o, acc: layerAcc{}}
	if o.trace {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.workdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	b.tmp = tmp
	return b, nil
}

func (b *bench) close() { os.RemoveAll(b.tmp) }

// setUp sets the workload up setupPasses times and returns each pass's
// duration, the first measured from process start. Each pass ends with the
// warm-up op and a collection, so the timed phase starts on a settled heap.
func (b *bench) setUp(w workloadRunner) ([]float64, error) {
	setups := make([]float64, 0, setupPasses)
	start := processStart
	for i := 0; i < setupPasses; i++ {
		b.t = b.tr
		err := w.setup(b)
		b.t = nil
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := w.warmup(b); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		runtime.GC()
		now := clock()
		setups = append(setups, now.Sub(start).Seconds())
		start = now
	}
	b.acc["setup_passes"] = setupPasses
	return setups, nil
}

// timedPhase is the work time of a run's rounds, split into traced and
// untraced rounds.
type timedPhase struct{ traced, untraced time.Duration }

func (p timedPhase) wall() time.Duration { return p.traced + p.untraced }

// runRounds runs the timed phase: rounds whole rounds, alternating traced
// and untraced ones, starting traced, when the run is traced.
func (b *bench) runRounds(w workloadRunner, rounds int) timedPhase {
	var phase timedPhase
	for k := 0; k < rounds; k++ {
		traced := b.trace && k%2 == 0
		b.t = nil
		if traced {
			b.t = b.tr
		}
		id := b.t.begin(spanRound, -1)
		d, err := w.round(b)
		b.t.end(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", b.workload, k, err)
		}
		if traced {
			phase.traced += d
			b.acc["rounds"]++
		} else {
			phase.untraced += d
			b.acc["untraced_rounds"]++
		}
	}
	b.t = nil
	return phase
}

// run sets the workload up, runs its timed phase and derives the metrics.
func run(o options) (*result, error) {
	def, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want sweep, record or check)", o.workload)
	}
	b, err := newBench(o)
	if err != nil {
		return nil, err
	}
	defer b.close()
	w := def.make()
	setups, err := b.setUp(w)
	if err != nil {
		return nil, err
	}

	// A fixed number of whole rounds, so every run with the same --seconds
	// times the same multiset of ops; a traced run needs one round of each
	// kind.
	rounds := max(1, int(math.Round(float64(o.seconds)/def.roundSeconds)))
	if o.trace {
		rounds = max(rounds, 2)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	phase := b.runRounds(w, rounds)
	runtime.ReadMemStats(&ms1)

	res := &result{Attempted: b.ops, Failed: b.failed, Metrics: map[string]metric{}}
	res.Correct = b.ops > 0 && b.failed == 0
	if o.trace {
		b.acc["all_ops"] = float64(b.ops)
		b.acc["alloc_bytes"] = float64(ms1.TotalAlloc - ms0.TotalAlloc)
		b.acc["mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
		b.acc["gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		m := layerMetrics(b.acc, b.tr, phase)
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{m[l.name], l.unit}
		}
		dump := filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := writeSpans(dump, b.tr, b.acc); err != nil {
			return nil, err
		}
		fmt.Printf("%s seed %d: %d ops (%d failed), %d of %d rounds traced; spans in %s\n",
			o.workload, o.seed, b.ops, b.failed, int(b.acc["rounds"]), rounds, dump)
		return res, nil
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	wall := phase.wall().Seconds()
	p50 := quantile(b.opTimes, 0.5)
	res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
	res.Metrics["wall_s"] = metric{wall, "s"}
	res.Metrics["run_s_p50"] = metric{p50.Seconds(), "s"}
	res.Metrics["sim_mcycles_per_s"] = metric{b.simCycles / 1e6 / wall, "Mcycles/s"}
	res.Metrics["mevents_per_s"] = metric{b.events / 1e6 / wall, "Mevents/s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	// The highest percentile with at least ten ops beyond it.
	q := max(0.5, 1-10/float64(len(b.opTimes)))
	fmt.Printf("%s seed %d: %d ops (%d failed) in %d rounds; run_s p50 %.4f, p%.0f %.4f; wall %.3f s; set-up passes %.3f s\n",
		o.workload, o.seed, b.ops, b.failed, rounds, p50.Seconds(), 100*q, quantile(b.opTimes, q).Seconds(), wall, setups)
	return res, nil
}

// quantile returns the q-quantile of xs by the nearest-rank method.
func quantile[T cmp.Ordered](xs []T, q float64) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func main() {
	o := options{root: ".", workdir: ".bench_build", cycles: paperCycles}
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload: sweep, record or check")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the traffic realization of every simulated run")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal length of the timed phase, which fixes its number of whole rounds")
	flag.IntVar(&traced, "trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	flag.Parse()
	if traced != 0 && traced != 1 {
		die(fmt.Errorf("--trace must be 0 or 1, not %d", traced))
	}
	o.trace = traced == 1
	res, err := run(o)
	if err != nil {
		die(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		die(err)
	}
	fmt.Println(string(out))
}

// die reports a run that could not produce a result and exits non-zero.
func die(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1) //nepvet:allow det/exit the benchmark's own exit status
}
