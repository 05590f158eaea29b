// Command nepsim runs one NPU simulation — a benchmark under a traffic load
// with an optional DVS policy — and reports statistics, optionally writing
// the event trace for offline LOC analysis, a metrics snapshot, and a run
// manifest.
//
// Examples:
//
//	nepsim -bench ipfwdr -level high -cycles 8000000 -trace run.trc
//	nepsim -bench nat -mbps 600 -policy tdvs -threshold 1000 -window 40000
//	nepsim -bench md4 -level medium -policy edvs -window 40000 -idle 0.10
//	nepsim -bench ipfwdr -policy pid -p kp=4 -p setpoint_frac=0.15
//	nepsim -list-policies
//	nepsim -bench nat -policy tdvs -metrics m.json
//	nepsim -bench ipfwdr -policy tdvs -faults plan.json -run-timeout 5m
//	nepsim -bench ipfwdr -level high -timeline run.trace.json
//	nepsim -bench ipfwdr -formulas f.loc -assertions report.json
//
// -assertions writes the unified assertion report (loc.Report JSON): per-
// formula verdicts, violation witnesses with full trace provenance, the
// worst offender, and violation density over sim time. With -timeline,
// retained violations also appear as instants and window spans on the
// "assert" track, tiled against ME activity, DVS transitions and fault
// windows.
//
// -timeline records the run's simulation-time spans — per-ME execution and
// idle residency, memory transactions, VF ladder levels and transitions,
// fault windows — as Chrome/Perfetto trace-event JSON; open the file in
// ui.perfetto.dev or chrome://tracing. Identical invocations write
// byte-identical timelines.
//
// Metrics snapshots derive only from simulation state: two identical
// invocations write byte-identical -metrics files. A file ending in .prom
// is written in Prometheus text format instead of JSON. Whenever results
// are written, a manifest (<output>.manifest.json by default) records the
// full configuration, seed, metrics and environment; -manifest overrides
// the path and -manifest off disables it.
//
// With -cache DIR, results are stored in (and served from) a
// content-addressed run cache shared with dvsexplore: repeating an
// identical invocation skips the simulation, with the hit recorded in the
// manifest's cache block. Trace-writing runs bypass the cache.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nepdvs/internal/cache"
	"nepdvs/internal/cli"
	"nepdvs/internal/core"
	"nepdvs/internal/fault"
	"nepdvs/internal/loc"
	"nepdvs/internal/obs"
	"nepdvs/internal/policy"
	"nepdvs/internal/span"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// paramList collects repeatable -p name=value policy parameters.
type paramList map[string]float64

func (p paramList) String() string {
	var parts []string
	for k, v := range p {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v))
	}
	return strings.Join(parts, ",")
}

func (p paramList) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("parameter %s: %w", name, err)
	}
	p[name] = v
	return nil
}

// options collects every flag; run receives it whole.
type options struct {
	bench, level   string
	mbps           float64
	cycles, seed   int64
	policy         string
	listPolicies   bool
	params         paramList
	threshold      float64
	window         int64
	idleFrac, hyst float64
	tracePath      string
	timeline       string
	binary         bool
	formulas       string
	assertions     string
	pipeline       bool
	packets        string
	metrics        string
	manifest       string
	faults         string
	runTimeout     time.Duration
	cacheDir       string
	cpuprofile     string
	memprofile     string
	perf           bool
}

func main() {
	var o options
	flag.StringVar(&o.bench, "bench", "ipfwdr", "benchmark: ipfwdr, url, nat or md4")
	flag.StringVar(&o.level, "level", "high", "traffic level: low, medium or high")
	flag.Float64Var(&o.mbps, "mbps", 0, "override offered load in Mbps (0 = use -level)")
	flag.Int64Var(&o.cycles, "cycles", 8_000_000, "run length in 600 MHz reference cycles")
	flag.Int64Var(&o.seed, "seed", 1, "traffic seed")
	flag.StringVar(&o.policy, "policy", "nodvs", "DVS/DPM policy from the registry (see -list-policies), or nodvs")
	flag.BoolVar(&o.listPolicies, "list-policies", false, "list registered policies with their parameters and exit")
	o.params = paramList{}
	flag.Var(o.params, "p", "policy parameter as name=value (repeatable; overrides the legacy flags)")
	flag.Float64Var(&o.threshold, "threshold", 1000, "TDVS top threshold in Mbps")
	flag.Int64Var(&o.window, "window", 40000, "DVS monitor window in reference cycles")
	flag.Float64Var(&o.idleFrac, "idle", 0.10, "EDVS idle threshold fraction")
	flag.Float64Var(&o.hyst, "hysteresis", 0, "TDVS hysteresis band (ablation)")
	flag.StringVar(&o.tracePath, "trace", "", "write the event trace to this file")
	flag.StringVar(&o.timeline, "timeline", "", "write a Chrome/Perfetto trace-event JSON timeline to this file")
	flag.BoolVar(&o.binary, "binary", false, "write the trace in binary format")
	flag.StringVar(&o.formulas, "formulas", "", "LOC formulas to evaluate live (file path)")
	flag.StringVar(&o.assertions, "assertions", "", "write the assertion report JSON (verdicts, witnesses, density) to this file; requires -formulas")
	flag.BoolVar(&o.pipeline, "pipeline", false, "emit per-batch pipeline events (large traces)")
	flag.StringVar(&o.packets, "packets", "", "replay packet arrivals from a trafficgen file instead of generating")
	flag.StringVar(&o.metrics, "metrics", "", "write a metrics snapshot to this file (.prom = Prometheus text, else JSON)")
	flag.StringVar(&o.manifest, "manifest", "", `run manifest path ("" = derive from outputs, "off" = disable)`)
	flag.StringVar(&o.faults, "faults", "", "inject the deterministic fault plan from this JSON file")
	flag.DurationVar(&o.runTimeout, "run-timeout", 0, "wall-clock watchdog for the run (0 = unbounded)")
	flag.StringVar(&o.cacheDir, "cache", "", "content-addressed run cache directory (shared with dvsexplore)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file")
	flag.BoolVar(&o.perf, "perf", false, "measure host performance (simulated cycles/sec, events/sec, per-packet allocation) and report it; recorded in the manifest's perf block")
	flag.Parse()
	if err := run(o, os.Args[1:]); err != nil {
		cli.Die("nepsim", err)
	}
}

// resolvePolicy builds the run's PolicyConfig from the registry: -policy
// names a registered factory (or nodvs), the legacy convenience flags fill
// whichever of the factory's declared parameters they map to, and repeatable
// -p name=value entries override both. Unknown names fail here with the
// registry's did-you-mean hint.
func resolvePolicy(o options) (core.PolicyConfig, error) {
	name, err := policy.Canonical(o.policy)
	if err != nil {
		return core.PolicyConfig{}, err
	}
	params := map[string]float64{}
	if fac, _ := policy.Lookup(name); fac != nil {
		legacy := map[string]float64{
			"top_threshold_mbps": o.threshold,
			"window_cycles":      float64(o.window),
			"idle_frac":          o.idleFrac,
			"hysteresis":         o.hyst,
		}
		for _, d := range fac.Params {
			if v, ok := legacy[d.Name]; ok {
				params[d.Name] = v
			}
		}
	}
	for k, v := range o.params {
		params[k] = v
	}
	if len(params) == 0 {
		params = nil
	}
	return core.PolicyConfig{Name: name, Params: params}, nil
}

func run(o options, rawArgs []string) error {
	if o.listPolicies {
		fmt.Print(policy.DescribeAll())
		return nil
	}
	start := time.Now()
	prof, err := obs.StartProfiles(o.cpuprofile, o.memprofile)
	if err != nil {
		return err
	}
	defer prof.Stop()

	lv, err := traffic.ParseLevel(o.level)
	if err != nil {
		return err
	}
	cfg, err := core.DefaultRunConfig(workload.Name(o.bench), lv, o.seed)
	if err != nil {
		return err
	}
	cfg.Cycles = o.cycles
	cfg.Chip.EmitPipeline = o.pipeline
	if o.mbps != 0 {
		cfg.Traffic = traffic.Config{MeanMbps: o.mbps, Seed: o.seed}
	}
	if o.packets != "" {
		f, err := os.Open(o.packets)
		if err != nil {
			return err
		}
		pkts, err := traffic.ReadPackets(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Packets = pkts
		cfg.PacketCount = len(pkts)
	}
	cfg.Policy, err = resolvePolicy(o)
	if err != nil {
		return err
	}
	if o.formulas != "" {
		src, err := os.ReadFile(o.formulas)
		if err != nil {
			return err
		}
		cfg.Formulas = string(src)
		// Gate the run on static analysis against this run's exact trace
		// schema: a vacuous or tautological assertion set would spend the
		// whole simulation producing an empty claim.
		diags, parsed := loc.AnalyzeFile(cfg.Formulas, core.EventSchemaFor(cfg.Chip))
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s\n", o.formulas, d)
		}
		if !parsed {
			cli.DieUsage("nepsim", fmt.Errorf("%s does not parse", o.formulas))
		}
		if len(diags) > 0 {
			cli.DieLint("nepsim", fmt.Errorf("%d static-analysis finding(s) in %s", len(diags), o.formulas))
		}
	}
	if o.assertions != "" && o.formulas == "" {
		return fmt.Errorf("-assertions needs -formulas to evaluate")
	}
	if o.faults != "" {
		plan, err := fault.ReadPlanFile(o.faults)
		if err != nil {
			return err
		}
		cfg.FaultPlan = plan
	}
	cfg.Timeout = o.runTimeout

	// -perf needs the run's event counters even when no -metrics file was
	// asked for; the registry only reaches disk when -metrics is set.
	var reg *obs.Registry
	if o.metrics != "" || o.perf {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}

	// Assertion-evaluation latency is wall-clock derived, so it lives in a
	// separate registry that feeds only the manifest's perf block — never
	// the deterministic -metrics snapshot.
	var wallReg *obs.Registry
	if o.perf && cfg.Formulas != "" {
		wallReg = obs.NewRegistry()
		cfg.WallMetrics = wallReg
	}

	var spans *span.Recorder
	if o.timeline != "" {
		spans = span.NewRecorder()
		cfg.Spans = spans
	}

	// The run cache serves identical invocations from disk. Trace-writing
	// runs (-trace, -timeline) bypass it by design: a hit cannot replay the
	// event or span stream. Cache counters land in the manifest, not the
	// -metrics snapshot — the snapshot must stay a pure function of
	// simulation state.
	var store *cache.Store
	var runCache core.RunCache // nil, not a nil *cache.Store, when uncached
	if o.cacheDir != "" {
		cacheReg := obs.NewRegistry()
		store, err = cache.Open(o.cacheDir, cache.Options{Registry: cacheReg})
		if err != nil {
			return err
		}
		runCache = store
	}

	// closeTrace flushes the trace writer, then closes the file: a failed
	// final write-back must fail the run, not leave a truncated trace.
	var closeTrace func() error
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		defer f.Close() // error paths only; success closes via closeTrace
		var w interface {
			trace.Sink
			Close() error
		}
		if o.binary {
			w = trace.NewBinaryWriter(f)
		} else {
			w = trace.NewTextWriter(f)
		}
		cfg.ExtraSink = w
		closeTrace = func() error {
			if err := w.Close(); err != nil {
				return fmt.Errorf("writing trace %s: %w", o.tracePath, err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("closing trace %s: %w", o.tracePath, err)
			}
			return nil
		}
	}

	// Host-performance measurement brackets exactly the simulation call:
	// allocation deltas come from the runtime's cumulative counters, so GC
	// cycles in between do not hide allocations.
	var ms0 runtime.MemStats
	if o.perf {
		runtime.ReadMemStats(&ms0)
	}
	simStart := time.Now()
	res, err := core.RunCached(cfg, runCache)
	simWall := time.Since(simStart)
	if err != nil {
		return err
	}
	var perfSnap *obs.Snapshot
	if o.perf {
		s := perfSnapshot(o.cycles, simWall, ms0, res, reg, wallReg)
		perfSnap = &s
	}
	if closeTrace != nil {
		if err := closeTrace(); err != nil {
			return err
		}
	}

	printStats(o.bench, res)
	if perfSnap != nil {
		printPerf(*perfSnap, simWall)
	}

	var outputs []string
	if o.tracePath != "" {
		outputs = append(outputs, o.tracePath)
	}
	if o.assertions != "" {
		b, err := loc.BuildReport(res.LOC).JSON()
		if err != nil {
			return err
		}
		if err := obs.AtomicWriteFile(o.assertions, b, 0o644); err != nil {
			return err
		}
		outputs = append(outputs, o.assertions)
	}
	if spans != nil {
		if err := span.WriteChromeFile(o.timeline, spans.Events()); err != nil {
			return err
		}
		outputs = append(outputs, o.timeline)
	}
	var snap *obs.Snapshot
	if reg != nil {
		s := reg.Snapshot()
		snap = &s
		if o.metrics != "" {
			if err := writeMetrics(o.metrics, s); err != nil {
				return err
			}
			outputs = append(outputs, o.metrics)
		}
	}

	if path := manifestPath(o, outputs); path != "" {
		m := obs.NewManifest("nepsim", rawArgs)
		m.Config = res.Config
		m.Seed = o.seed
		m.Cycles = o.cycles
		m.Outputs = outputs
		m.Metrics = snap
		m.Perf = perfSnap
		if store != nil {
			m.Cache = store.Summary()
		}
		m.SetWall(time.Since(start))
		if err := m.WriteFile(path); err != nil {
			return err
		}
	}
	return prof.Stop()
}

// perfSnapshot folds the bracketing measurements into host-performance
// gauges: how fast the simulator simulated and what it allocated per
// simulated packet. Everything here is wall-clock derived, so the snapshot
// goes to the manifest's perf block and stdout — never into the
// deterministic -metrics surface.
func perfSnapshot(cycles int64, wall time.Duration, before runtime.MemStats, res *core.RunResult, reg, wallReg *obs.Registry) obs.Snapshot {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	preg := obs.NewRegistry()
	if wallReg != nil {
		// Fold in the wall-clock assertion-evaluation histogram
		// (loc_eval_seconds) so the manifest's perf block carries it.
		if err := preg.MergeSnapshot(wallReg.Snapshot()); err != nil {
			// Merging into an empty registry cannot conflict; a failure here
			// is a bug, but perf reporting must not sink the run.
			fmt.Fprintln(os.Stderr, "nepsim: perf merge:", err)
		}
	}
	secs := wall.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	preg.Gauge("perf_wall_ms").Set(float64(wall) / float64(time.Millisecond))
	preg.Gauge("perf_sim_cycles_per_sec").Set(float64(cycles) / secs)
	if pkts := res.Stats.PktsArrived; pkts > 0 {
		preg.Gauge("perf_sim_packets_per_sec").Set(float64(pkts) / secs)
		preg.Gauge("perf_alloc_bytes_per_packet").Set(float64(after.TotalAlloc-before.TotalAlloc) / float64(pkts))
		preg.Gauge("perf_allocs_per_packet").Set(float64(after.Mallocs-before.Mallocs) / float64(pkts))
	}
	if events := reg.Counter("sim_events_dispatched").Value(); events > 0 {
		preg.Gauge("perf_events_per_sec").Set(float64(events) / secs)
	}
	return preg.Snapshot()
}

// printPerf renders the host-performance block under the run statistics.
func printPerf(s obs.Snapshot, wall time.Duration) {
	g := s.Gauges
	fmt.Printf("host perf      %.2f Mcycles/s, %.2f Mevents/s, wall %v\n",
		g["perf_sim_cycles_per_sec"]/1e6, g["perf_events_per_sec"]/1e6, wall.Round(time.Millisecond))
	if bpp, ok := g["perf_alloc_bytes_per_packet"]; ok {
		fmt.Printf("alloc          %.1f B/packet (%.2f allocs/packet), %.0f pkts/s\n",
			bpp, g["perf_allocs_per_packet"], g["perf_sim_packets_per_sec"])
	}
}

// writeMetrics serializes a snapshot, choosing Prometheus text format for
// .prom paths and JSON otherwise.
func writeMetrics(path string, s obs.Snapshot) error {
	if filepath.Ext(path) == ".prom" {
		return s.WritePrometheusFile(path)
	}
	return s.WriteJSONFile(path)
}

// manifestPath resolves the -manifest flag: "off" disables, an explicit
// path wins, and otherwise a manifest is derived from the first results
// file — no results, no manifest.
func manifestPath(o options, outputs []string) string {
	switch {
	case o.manifest == "off":
		return ""
	case o.manifest != "":
		return o.manifest
	case o.metrics != "":
		return deriveManifest(o.metrics)
	case o.tracePath != "":
		return deriveManifest(o.tracePath)
	case o.timeline != "":
		return deriveManifest(o.timeline)
	case o.assertions != "":
		return deriveManifest(o.assertions)
	}
	return ""
}

// deriveManifest turns results path "m.json" into "m.manifest.json".
func deriveManifest(out string) string {
	return strings.TrimSuffix(out, filepath.Ext(out)) + ".manifest.json"
}

func printStats(bench string, res *core.RunResult) {
	st := res.Stats
	fmt.Printf("benchmark      %s\n", bench)
	fmt.Printf("policy         %s\n", res.Config.Policy)
	fmt.Printf("offered        %.1f Mbps (%d packets)\n", st.OfferedMbps(), st.PktsArrived)
	fmt.Printf("forwarded      %.1f Mbps (%d packets)\n", st.SentMbps(), st.PktsSent)
	fmt.Printf("packet loss    %.4f\n", st.LossFrac())
	fmt.Printf("energy         %.1f uJ over %v\n", st.EnergyUJ, st.Now)
	fmt.Printf("average power  %.3f W\n", st.AvgPowerW)
	for i := range st.MEIdleFrac {
		fmt.Printf("ME%d            idle %.3f  stall %.3f  instr %d\n",
			i, st.MEIdleFrac[i], st.MEStallFrac[i], st.MEInstr[i])
	}
	if res.DVSStats != nil {
		fmt.Printf("dvs            %d windows, %d transitions\n", res.DVSStats.Windows, res.DVSStats.Transitions)
	}
	if f := res.Faults; f != nil {
		fmt.Printf("faults         %d armed, %d mem delays, %d port stalls, %d drops, %d misreads, %d blocked transitions\n",
			f.Armed, f.MemDelayed, f.PortStalled, f.PortDropped, f.SensorMisreads, f.VFBlocked)
	}
	if res.MonitorFraction > 0 {
		fmt.Printf("monitor energy %.4f%% of total\n", res.MonitorFraction*100)
	}
	for _, lr := range res.LOC {
		fmt.Println()
		fmt.Print(lr.Summary())
	}
}
