// Package core is the design-exploration engine: it wires the NPU model,
// a benchmark workload, a traffic source, an optional DVS policy and a set
// of LOC assertion formulas into one reproducible simulation run, and
// provides the parameter-sweep machinery the paper's Figures 6–11 are built
// from.
//
// A Run is fully described by its RunConfig value; two Runs with equal
// configs produce identical traces and results. LOC analyzers attach as
// live trace sinks, so distribution analysis happens in O(window) memory
// while the simulation streams — no trace files are needed (though a sink
// can be supplied to also persist the trace).
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"nepdvs/internal/fault"
	"nepdvs/internal/loc"
	"nepdvs/internal/loc/interval"
	"nepdvs/internal/npu"
	"nepdvs/internal/obs"
	"nepdvs/internal/policy"
	"nepdvs/internal/sim"
	"nepdvs/internal/span"
	"nepdvs/internal/trace"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// PolicyConfig selects and parameterizes the run's DVS/DPM policy by
// registry name (see internal/policy). The closed PolicyKind enum this
// replaces survives as registered aliases: "TDVS", "EDVS", "TDVS+EDVS" and
// "oracleTDVS" resolve to the same factories — and the same cache keys —
// as "tdvs", "edvs", "combined" and "oracle".
type PolicyConfig struct {
	// Name is a policy registry name or alias; empty means no policy.
	Name string `json:",omitempty"`
	// Params holds the policy's parameters by canonical snake_case name
	// ("window_cycles", "top_threshold_mbps", ...); absent keys take the
	// factory's documented defaults.
	Params map[string]float64 `json:",omitempty"`
}

// String renders the policy for charts and logs: the canonical registry
// name, or "noDVS" for the empty policy.
func (p PolicyConfig) String() string {
	if p.Name == "" {
		return "noDVS"
	}
	if c, err := policy.Canonical(p.Name); err == nil {
		return c
	}
	return p.Name
}

// Param returns one parameter's explicit value, or 0 when absent. It does
// not apply factory defaults — use internal/policy for resolved values.
func (p PolicyConfig) Param(name string) float64 { return p.Params[name] }

// NewPolicy builds a PolicyConfig for a registry policy.
func NewPolicy(name string, params map[string]float64) PolicyConfig {
	return PolicyConfig{Name: name, Params: params}
}

// TDVSPolicy is the traffic-based policy at a Figure 6 design point.
func TDVSPolicy(thresholdMbps float64, windowCycles int64) PolicyConfig {
	return NewPolicy("tdvs", map[string]float64{
		"top_threshold_mbps": thresholdMbps,
		"window_cycles":      float64(windowCycles),
	})
}

// EDVSPolicy is the execution-based policy at a Figure 10 design point.
func EDVSPolicy(windowCycles int64, idleFrac float64) PolicyConfig {
	return NewPolicy("edvs", map[string]float64{
		"window_cycles": float64(windowCycles),
		"idle_frac":     idleFrac,
	})
}

// CombinedPolicy is the TDVS+EDVS ablation.
func CombinedPolicy(thresholdMbps float64, windowCycles int64, idleFrac float64) PolicyConfig {
	return NewPolicy("combined", map[string]float64{
		"top_threshold_mbps": thresholdMbps,
		"window_cycles":      float64(windowCycles),
		"idle_frac":          idleFrac,
	})
}

// OraclePolicy is the lookahead ablation at a TDVS design point.
func OraclePolicy(thresholdMbps float64, windowCycles int64) PolicyConfig {
	return NewPolicy("oracle", map[string]float64{
		"top_threshold_mbps": thresholdMbps,
		"window_cycles":      float64(windowCycles),
	})
}

// RunConfig fully describes one simulation run.
type RunConfig struct {
	Bench      workload.Name
	WorkParams workload.Params
	Chip       npu.Config
	Traffic    traffic.Config
	// Cycles is the run length in reference-clock cycles (the paper uses
	// 8·10⁶ per configuration).
	Cycles int64
	Policy PolicyConfig
	// Packets, when non-nil, replaces the generated traffic with an
	// explicit arrival schedule (e.g. one loaded from a trafficgen file);
	// the Traffic config is then ignored. Excluded from JSON so that run
	// manifests stay small; PacketCount records the schedule size instead.
	Packets []traffic.Packet `json:"-"`
	// PacketCount mirrors len(Packets) for manifest serialization. It is
	// informational only and ignored by Run.
	PacketCount int `json:",omitempty"`
	// Formulas is LOC source text evaluated live against the trace
	// (multiple formulas separated by semicolons, optionally named).
	Formulas string
	// FaultPlan, when non-nil, injects the plan's deterministic faults into
	// this run (see internal/fault). The plan is scoped per run: faults
	// whose Only clause does not match the run's traffic seed or policy
	// parameters are skipped, so a sweep can target single design points.
	// Serialized into manifests so faulted runs are reproducible from their
	// config block alone.
	FaultPlan *fault.Plan `json:",omitempty"`
	// Timeout, when positive, bounds the run's wall-clock time: a watchdog
	// interrupts the simulation kernel and the run fails with a
	// context.DeadlineExceeded error. This is the defense against injected
	// or accidental livelocks — simulated time may stand still, but the
	// wall clock does not.
	Timeout time.Duration `json:",omitempty"`
	// ExtraSink, when non-nil, additionally receives every trace event
	// (e.g. a file writer). Not part of the serializable config.
	ExtraSink trace.Sink `json:"-"`
	// Metrics, when non-nil, receives the run's observability counters
	// (kernel, chip and DVS controller) after the run completes. All
	// published values derive from simulation state only, so a registry fed
	// by one run snapshots byte-identically across same-config runs. A
	// shared registry is safe: it accumulates across concurrent sweep runs.
	Metrics *obs.Registry `json:"-"`
	// Spans, when non-nil, records the run's simulation-time timeline into
	// the recorder: per-ME execution/idle residency, memory-controller
	// transactions, VF ladder walks (including transition stalls), DVS
	// window decisions and fault windows. Everything recorded derives from
	// simulation state, so two same-config runs produce byte-identical span
	// streams. A run with a recorder bypasses the run cache — a cache hit
	// cannot replay the timeline. Not part of the serializable config; a
	// recorder serves exactly one run.
	Spans *span.Recorder `json:"-"`
	// WallMetrics, when non-nil, receives wall-clock-derived observability
	// (the loc_eval_seconds assertion-evaluation latency histogram). It is
	// kept separate from Metrics because wall-clock values are not
	// deterministic per seed; manifests and service /metrics may fold it in,
	// but nepsim -metrics snapshots must not. Not part of the serializable
	// config.
	WallMetrics *obs.Registry `json:"-"`
}

// DefaultRunConfig assembles the paper's experimental setup for a benchmark
// at a traffic level. The traffic day model is scaled so its afternoon peak
// drives the IXP1200 near 1 Gbps, matching the Figure 6–9 threshold regime.
func DefaultRunConfig(bench workload.Name, level traffic.Level, seed int64) (RunConfig, error) {
	if !bench.Valid() {
		return RunConfig{}, fmt.Errorf("core: unknown benchmark %q", bench)
	}
	day := traffic.DefaultDayModel()
	tc, err := day.SampleLevel(level, 4, seed)
	if err != nil {
		return RunConfig{}, err
	}
	return RunConfig{
		Bench:      bench,
		WorkParams: workload.DefaultParams(),
		Chip:       npu.DefaultConfig(),
		Traffic:    tc,
		Cycles:     8_000_000,
		Policy:     PolicyConfig{},
	}, nil
}

// Duration returns the simulated time of the run.
func (c RunConfig) Duration() sim.Time {
	return sim.NewClock(c.Chip.RefMHz).Cycles(c.Cycles)
}

func (c RunConfig) validate() error {
	if !c.Bench.Valid() {
		return fmt.Errorf("core: unknown benchmark %q", c.Bench)
	}
	if c.Cycles <= 0 {
		return fmt.Errorf("core: non-positive run length %d cycles", c.Cycles)
	}
	// Policy names and parameters validate behind the registry: each
	// factory owns its own parameter checks, so core stays policy-agnostic.
	if err := policy.Validate(c.Policy.Name, c.Policy.Params); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// RunResult is the outcome of one simulation run.
type RunResult struct {
	Config RunConfig
	Stats  npu.Stats
	// LOC holds one result per formula, in source order.
	LOC []loc.Result
	// DVSStats is the controller's activity (nil for NoDVS).
	DVSStats *policy.Stats
	// MonitorFraction is the TDVS monitor energy share (0 when disabled).
	MonitorFraction float64
	// Faults reports the fault injector's activity (nil when the run had no
	// fault plan).
	Faults *fault.Stats
}

// LOCByName finds a formula result by name.
func (r *RunResult) LOCByName(name string) (*loc.Result, bool) {
	for i := range r.LOC {
		if r.LOC[i].Name == name {
			return &r.LOC[i], true
		}
	}
	return nil, false
}

// TraceSchema returns the annotation schema of the traces this engine
// produces: the five standard annotations plus the extras emitted by the
// chip model (per-window idle fractions, VF-change parameters, pipeline
// batch sizes) and the fault-event codes (kind, unit, magnitude).
func TraceSchema() map[string]bool {
	return loc.StandardSchema("idle_frac", "mhz", "volts", "instrs", "kind", "unit", "magnitude")
}

// TraceRanges declares the value range of every annotation in TraceSchema,
// for the semantic analyzer: the five standard annotations are monotone
// counters (non-negative), idle fractions live in [0, 1], and the remaining
// extras are non-negative physical quantities or enum codes — except fault
// magnitudes, which may be any real (e.g. a negative voltage excursion).
func TraceRanges() map[string]interval.Interval {
	anns := loc.StandardRanges()
	nn := interval.Range(0, math.Inf(1))
	anns["idle_frac"] = interval.Range(0, 1)
	for _, a := range []string{"mhz", "volts", "instrs", "kind", "unit"} {
		anns[a] = nn
	}
	anns["magnitude"] = interval.Full()
	return anns
}

// EventSchemaFor returns the full analyzer schema — annotation ranges plus
// the exact event vocabulary — of traces produced by a chip with the given
// configuration. The vocabulary is what Chip and the fault injector can
// emit: the packet-path events, the fault announcements, and the per-ME
// pipeline/idle/vfchange events for each configured microengine.
func EventSchemaFor(chip npu.Config) *loc.Schema {
	events := map[string]bool{
		trace.EvForward: true, trace.EvFifo: true, trace.EvDrop: true,
		trace.EvFault: true, trace.EvFaultClear: true, trace.EvFaultDrop: true,
	}
	for k := 0; k < chip.NumMEs; k++ {
		events[trace.MEEvent(k, trace.EvPipeline)] = true
		events[trace.MEEvent(k, trace.EvIdle)] = true
		events[trace.MEEvent(k, trace.EvVFChange)] = true
	}
	return &loc.Schema{Anns: TraceRanges(), Events: events}
}

// EventSchema is EventSchemaFor on the default chip configuration.
func EventSchema() *loc.Schema { return EventSchemaFor(npu.DefaultConfig()) }

// RunError wraps a failure inside the simulation itself — a panic recovered
// from the model (possibly an injected one) — as an ordinary error so batch
// and sweep machinery can record it instead of dying.
type RunError struct {
	// Panicked reports that the run died by panic; Value is the panic value
	// rendered as text and Stack the goroutine stack at recovery.
	Panicked bool
	Value    string
	Stack    string
	// Err is the underlying error, if the failure was an ordinary error.
	Err error
}

// Error implements error.
func (e *RunError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("core: run panicked: %s", e.Value)
	}
	return fmt.Sprintf("core: run failed: %v", e.Err)
}

// Unwrap exposes the underlying error for errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// Run executes one simulation run to completion.
func Run(cfg RunConfig) (*RunResult, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes one simulation run under a context. Cancellation (or
// a RunConfig.Timeout expiry) interrupts the simulation kernel and fails
// the run; a panic inside the model is recovered into a *RunError rather
// than killing the process, so sweeps survive individual bad runs.
//
// When a run cache is installed (SetRunCache) and the config has no
// ExtraSink and no Spans recorder, the run is content-addressed: a hit
// returns the stored result without simulating — the run hook does not
// fire, and the stored metrics snapshot merges into cfg.Metrics in place of
// a live publish — and a miss stores the completed result for the next
// identical run. The cache sees the run's context, so lookups can observe
// trace IDs.
func RunContext(ctx context.Context, cfg RunConfig) (*RunResult, error) {
	cache := loadRunCache()
	var key string
	var material []byte
	if cache != nil && cfg.ExtraSink == nil && cfg.Spans == nil {
		// A key derivation failure only disables caching for this run; it
		// must never fail a run the simulator could complete.
		if m, err := RunKeyMaterial(cfg); err == nil {
			material = m
			sum := sha256.Sum256(m)
			key = hex.EncodeToString(sum[:])
			if cr, ok := cache.Lookup(ctx, key); ok && cr.Result != nil {
				res := cr.Result
				// The stored config round-tripped through JSON and lost the
				// non-serializable fields; hand back the caller's own.
				res.Config = cfg
				if cfg.Metrics != nil && cr.Metrics != nil {
					if err := cfg.Metrics.MergeSnapshot(*cr.Metrics); err != nil {
						return nil, fmt.Errorf("core: cached metrics for run %s: %w", key[:12], err)
					}
				}
				return res, nil
			}
		}
	}
	res, snap, err := runSim(ctx, cfg, key != "")
	if err == nil && key != "" {
		cache.Store(ctx, key, material, &CachedRun{Result: res, Metrics: snap})
	}
	return res, err
}

// locEvalSink wraps the LOC runner to sample the wall-clock latency of its
// event processing. Wall-derived, so it observes only into the histogram
// from RunConfig.WallMetrics — never the deterministic Metrics registry.
// Sampling every 64th event keeps the hot path cheap.
type locEvalSink struct {
	inner trace.Sink
	hist  *obs.Histogram
	n     uint64
}

func (s *locEvalSink) Emit(ev *trace.Event) error {
	s.n++
	if s.n&63 != 0 {
		return s.inner.Emit(ev)
	}
	start := time.Now()
	err := s.inner.Emit(ev)
	s.hist.Observe(time.Since(start).Seconds())
	return err
}

// runSim is the simulation proper: everything RunContext does besides cache
// bookkeeping. capture asks for a private per-run metrics snapshot (for the
// cache entry) in addition to any cfg.Metrics publish.
func runSim(ctx context.Context, cfg RunConfig, capture bool) (res *RunResult, snap *obs.Snapshot, err error) {
	if h := loadRunHook(); h != nil {
		start := time.Now()
		defer func() { h(time.Since(start), err) }()
	}
	// Registered after the hook defer so it runs first: the hook observes
	// the recovered error, not the panic.
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &RunError{Panicked: true, Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()

	// Validation failures count as failed runs — the hook above observes
	// them — and are never cached, so a pre-validation cache lookup in
	// RunContext can only miss.
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}

	// Compile formulas first: cheap, and user errors surface before the
	// simulation burns time.
	var runner *loc.Runner
	if cfg.Formulas != "" {
		fs, err := loc.ParseFile(cfg.Formulas)
		if err != nil {
			return nil, nil, err
		}
		compiled := make([]*loc.Compiled, len(fs))
		for i, f := range fs {
			c, err := loc.Compile(f, TraceSchema())
			if err != nil {
				return nil, nil, err
			}
			compiled[i] = c
		}
		runner, err = loc.NewRunner(loc.RunnerOptions{}, compiled...)
		if err != nil {
			return nil, nil, err
		}
	}

	progs, err := workload.Programs(cfg.Bench, cfg.WorkParams, cfg.Chip.NumMEs, cfg.Chip.RxMEs)
	if err != nil {
		return nil, nil, err
	}

	// Resolve the policy factory once; validate() above guarantees the
	// name resolves. The factory declares whether it reads the traffic
	// monitor, which decides the per-packet monitor-update charge.
	fac, err := policy.Lookup(cfg.Policy.Name)
	if err != nil {
		return nil, nil, err
	}
	pparams := policy.Params(cfg.Policy.Params)

	chipCfg := cfg.Chip
	chipCfg.MonitorOverhead = fac != nil && fac.Monitor

	var sinks trace.MultiSink
	if runner != nil {
		if cfg.Spans != nil {
			runner.SetSpans(cfg.Spans)
		}
		if cfg.WallMetrics != nil {
			sinks = append(sinks, &locEvalSink{
				inner: runner,
				hist:  cfg.WallMetrics.Histogram("loc_eval_seconds", obs.ExponentialEdges(1e-7, 4, 12)),
			})
		} else {
			sinks = append(sinks, runner)
		}
	}
	if cfg.ExtraSink != nil {
		sinks = append(sinks, cfg.ExtraSink)
	}
	var sink trace.Sink
	if len(sinks) > 0 {
		sink = sinks
	}

	k := &sim.Kernel{}
	chip, err := npu.New(chipCfg, k, progs, sink)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Spans != nil {
		chip.SetSpans(cfg.Spans)
	}

	// Compile and arm the fault plan, if any. The plan is scope-filtered to
	// this run, compiled against the reference clock, hooked into the chip's
	// memory and port paths, and armed on the kernel so fault onsets appear
	// in the trace. The DVS-facing sensor/actuator tap is attached below
	// where the policy is built.
	var inj *fault.Injector
	if cfg.FaultPlan != nil {
		// Scope filters match on the resolved policy parameters (defaults
		// applied), so a plan aimed at window_cycles=40000 also hits runs
		// that rely on a factory default of 40000.
		var scopeWindow int64
		var scopeThreshold float64
		if fac != nil {
			scopeWindow = int64(fac.Param(pparams, "window_cycles"))
			scopeThreshold = fac.Param(pparams, "top_threshold_mbps")
		}
		scoped := cfg.FaultPlan.ForRun(cfg.Traffic.Seed, scopeWindow, scopeThreshold)
		inj, err = fault.NewInjector(scoped, sim.NewClock(cfg.Chip.RefMHz))
		if err != nil {
			return nil, nil, err
		}
		chip.SetFaultInjector(inj)
		if cfg.Spans != nil {
			inj.SetSpans(cfg.Spans)
		}
		inj.Arm(k, chip.EmitExternal)
	}

	// Materialize the packet stream up front: the oracle policy needs the
	// per-window volumes before the run starts.
	dur := cfg.Duration()
	pkts := cfg.Packets
	if pkts == nil {
		gen, err := traffic.NewGenerator(cfg.Traffic)
		if err != nil {
			return nil, nil, err
		}
		pkts = gen.GenerateUntil(dur)
	}

	// Attach the policy through the registry. Policies see the chip
	// through the fault injector's sensor tap when one is armed, so sensor
	// misreads and stuck transitions (VF or sleep) act on the policy
	// without the chip model knowing.
	var pchip policy.Chip = chip
	if inj != nil {
		pchip = policy.Intercept(chip, inj.Tap(k))
	}
	var loop *policy.Loop
	if fac != nil {
		loop, err = fac.Start(policy.Env{
			Kernel:   k,
			Chip:     pchip,
			RefMHz:   cfg.Chip.RefMHz,
			Duration: dur,
			Params:   pparams,
			Spans:    cfg.Spans,
			Packets:  pkts,
		})
		if err != nil {
			return nil, nil, err
		}
	}

	if err := chip.Inject(pkts); err != nil {
		return nil, nil, err
	}

	// Watchdog: a goroutine that interrupts the kernel when the context
	// expires. Only started when the context can actually fire — for the
	// plain context.Background() path Done() is nil and the run is
	// unbounded, costing nothing.
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	if ctx.Done() != nil {
		if ctx.Err() != nil {
			// Already expired: abort before the first event instead of
			// racing the watchdog goroutine against a short run.
			k.Interrupt()
		}
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				k.Interrupt()
			case <-watchDone:
			}
		}()
	}

	k.RunUntil(dur)
	chip.StopTickers()
	chip.FlushSpans()

	if k.Interrupted() {
		cause := ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		return nil, nil, fmt.Errorf("core: run aborted by watchdog at %v simulated (%d events dispatched): %w", k.Now(), k.Dispatched(), cause)
	}

	if err := chip.SinkErr(); err != nil {
		return nil, nil, err
	}

	res = &RunResult{
		Config:          cfg,
		Stats:           chip.Snapshot(),
		MonitorFraction: chip.Meter().MonitorFraction(),
	}
	if runner != nil {
		locRes, err := runner.Results()
		if err != nil {
			return nil, nil, err
		}
		res.LOC = locRes
	}
	if loop != nil {
		st := loop.Stats()
		res.DVSStats = &st
	}
	if inj != nil {
		st := inj.Stats()
		res.Faults = &st
	}
	// Publish metrics into the caller's registry and, when the cache needs
	// an entry, into a private registry snapshotted for it. Publishing reads
	// simulation state only, so publishing twice is safe and both surfaces
	// see identical values.
	regs := make([]*obs.Registry, 0, 2)
	if cfg.Metrics != nil {
		regs = append(regs, cfg.Metrics)
	}
	var captureReg *obs.Registry
	if capture {
		captureReg = obs.NewRegistry()
		regs = append(regs, captureReg)
	}
	for _, reg := range regs {
		// core_runs / core_ref_cycles make a shared registry self-describing
		// for throughput math: simulated reference cycles completed per
		// wall-clock second is core_ref_cycles over the harness's measured
		// wall time, with no out-of-band knowledge of how many runs fed the
		// registry. Both derive from config and completion state only, so
		// they are deterministic and replay correctly from cached snapshots.
		reg.Counter("core_runs").Inc()
		reg.Counter("core_ref_cycles").Add(uint64(cfg.Cycles))
		k.PublishMetrics(reg)
		chip.PublishMetrics(reg)
		if res.DVSStats != nil {
			res.DVSStats.Publish(reg, "dvs")
		}
		if inj != nil {
			inj.PublishMetrics(reg)
		}
		if runner != nil {
			runner.PublishMetrics(reg)
		}
	}
	if captureReg != nil {
		s := captureReg.Snapshot()
		snap = &s
	}
	return res, snap, nil
}

// Point is one TDVS design point of the Figure 6–9 sweeps.
type Point struct {
	ThresholdMbps float64
	WindowCycles  int64
}

// TDVSGrid expands sweep axes into design points in the canonical
// threshold-major order. Every sweep path — SweepTDVS, the job queue and
// the experiments' sweeps — expands the grid here, so point order (and
// thus artifact layout) is identical everywhere.
func TDVSGrid(thresholds []float64, windows []int64) []Point {
	points := make([]Point, 0, len(thresholds)*len(windows))
	for _, th := range thresholds {
		for _, w := range windows {
			points = append(points, Point{ThresholdMbps: th, WindowCycles: w})
		}
	}
	return points
}

// TDVSPointConfig derives the exact config Sweep runs for one grid point:
// the base config with its policy replaced by the point's TDVS policy
// (keeping the base hysteresis). A point's run key — and therefore its
// cache entry and result — depends on this config alone.
func TDVSPointConfig(base RunConfig, pt Point) RunConfig {
	cfg := base
	p := TDVSPolicy(pt.ThresholdMbps, pt.WindowCycles)
	if h := base.Policy.Param("hysteresis"); h != 0 {
		p.Params["hysteresis"] = h
	}
	cfg.Policy = p
	return cfg
}

// SweepResult pairs a design point with its run outcome. Exactly one of
// Result and Err is set: a point whose run fails (after one retry) carries
// its error here instead of aborting the whole sweep.
type SweepResult struct {
	Point  Point
	Result *RunResult
	Err    error
	// Retries counts execution attempts beyond the first this point needed
	// (RunWithRetry retries once). Scheduling bookkeeping, not content: it
	// never serializes into sweep artifacts, which must stay byte-identical
	// however many attempts a point took.
	Retries int
}

// RunWithRetry executes a run and, on failure, tries exactly once more,
// reporting how many extra attempts were spent. The retry absorbs transient
// failures (a watchdog firing on a loaded machine); deterministic failures —
// injected panics, config errors — fail both attempts, and the second error
// is returned. A canceled context is never retried: the caller asked the
// work to stop.
func RunWithRetry(ctx context.Context, cfg RunConfig) (*RunResult, int, error) {
	res, err := RunContext(ctx, cfg)
	if err == nil || ctx.Err() != nil {
		return res, 0, err
	}
	res, err = RunContext(ctx, cfg)
	return res, 1, err
}

// Parallelism resolves the convention shared by every parallel entry
// point: zero or negative means one worker per CPU.
func Parallelism(p int) int {
	if p <= 0 {
		return runtime.NumCPU()
	}
	return p
}

// ForEach calls fn(i) for every i in [0, n), at most Parallelism(parallelism)
// calls at a time, and returns once all of them have returned. It is the
// one bounded fan-out behind every parallel entry point; RunBatch is built
// on it.
func ForEach(n, parallelism int, fn func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, Parallelism(parallelism))
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}()
	}
	wg.Wait()
}

// BatchResult is the outcome of one config of a RunBatch. Exactly one of
// Result and Err is set.
type BatchResult struct {
	Result *RunResult
	Err    error
	// Retries counts attempts beyond the first (see RunWithRetry).
	Retries int
}

// RunBatch is the one batch executor: it runs every config with
// RunWithRetry, at most Parallelism(parallelism) at a time, and returns the
// outcomes in config order. At parallelism 1 the configs run in order.
//
// The batch is resilient: a config whose run still fails after its retry
// records its error while the others complete. Cancelling ctx interrupts
// in-flight runs and skips configs not yet started; each records ctx's
// error. onDone, when non-nil, is called once per finished config,
// concurrently from batch workers.
func RunBatch(ctx context.Context, cfgs []RunConfig, parallelism int, onDone func(i int, r BatchResult)) []BatchResult {
	out := make([]BatchResult, len(cfgs))
	ForEach(len(cfgs), parallelism, func(i int) {
		r := BatchResult{Err: ctx.Err()}
		if r.Err == nil {
			r.Result, r.Retries, r.Err = RunWithRetry(ctx, cfgs[i])
		}
		out[i] = r
		if onDone != nil {
			onDone(i, r)
		}
	})
	return out
}

// SweepTDVS runs the cross product of thresholds × windows (each with the
// base config's benchmark, traffic and formulas) in-process, in parallel
// across goroutines — each run owns its kernel, so runs are independent.
// It is Sweep with no observer.
func SweepTDVS(base RunConfig, thresholds []float64, windows []int64, parallelism int) ([]SweepResult, error) {
	return Sweep(context.Background(), base, thresholds, windows, parallelism, nil)
}

// Sweep expands the grid (TDVSGrid), derives each point's config
// (TDVSPointConfig) and runs the points as one RunBatch. Results are
// returned in the deterministic threshold-major order, so SweepTDVS and
// queued sweep jobs produce the same results.
//
// A point whose run panics, times out or otherwise fails records its error
// in its SweepResult while the remaining points complete. If any point
// failed the returned error summarizes the damage — callers that need every
// point treat it as fatal; callers doing robustness exploration inspect the
// per-point Errs. Only when every point fails is the result slice nil.
//
// Cancellation follows RunBatch. onPoint, when non-nil, is called once per
// finished point, concurrently from batch workers — the job queue hangs
// per-job progress off it.
func Sweep(ctx context.Context, base RunConfig, thresholds []float64, windows []int64, parallelism int, onPoint func(SweepResult)) ([]SweepResult, error) {
	if len(thresholds) == 0 || len(windows) == 0 {
		return nil, fmt.Errorf("core: empty sweep axes")
	}
	points := TDVSGrid(thresholds, windows)
	cfgs := make([]RunConfig, len(points))
	for i, pt := range points {
		cfgs[i] = TDVSPointConfig(base, pt)
	}
	results := make([]SweepResult, len(points))
	RunBatch(ctx, cfgs, parallelism, func(i int, r BatchResult) {
		results[i] = SweepResult{Point: points[i], Result: r.Result, Retries: r.Retries}
		if r.Err != nil {
			results[i].Err = fmt.Errorf("core: point %+v: %w", points[i], r.Err)
		}
		if onPoint != nil {
			onPoint(results[i])
		}
	})
	var failed int
	var first error
	for _, r := range results {
		if r.Err != nil {
			failed++
			if first == nil {
				first = r.Err
			}
		}
	}
	switch {
	case failed == len(results):
		return nil, fmt.Errorf("core: all %d sweep points failed (first: %w)", failed, first)
	case failed > 0:
		return results, fmt.Errorf("core: %d of %d sweep points failed (first: %w)", failed, len(results), first)
	}
	return results, nil
}

// The paper's analysis formulas, parameterized by their per-N-packet
// window. Power is formula (2) — a ≤-distribution ("fraction of instances
// lower than") — and throughput is formula (3), a ≥-distribution.

// PowerFormula returns the paper's formula (2): average power over each n
// forwarded packets, as a cdf over <min, max, step> watts.
func PowerFormula(n int, min, max, step float64) string {
	return fmt.Sprintf(
		"power: (energy(forward[i+%d]) - energy(forward[i])) / (time(forward[i+%d]) - time(forward[i])) cdf [%g, %g, %g];",
		n, n, min, max, step)
}

// ThroughputFormula returns the paper's formula (3): average forwarding
// rate in Mbps over each n forwarded packets, as a ccdf over <min, max,
// step> Mbps.
func ThroughputFormula(n int, min, max, step float64) string {
	return fmt.Sprintf(
		"throughput: (total_bit(forward[i+%d]) - total_bit(forward[i])) / 1000000 / ((time(forward[i+%d]) - time(forward[i])) / 1000000) ccdf [%g, %g, %g];",
		n, n, min, max, step)
}

// IdleFormula returns the §4.2 idle-time analyzer: the distribution of one
// ME's per-window idle fraction.
func IdleFormula(me int) string {
	return fmt.Sprintf("idle_m%d: idle_frac(m%d_idle[i]) hist [0, 0.5, 0.05];", me, me)
}

// StandardFormulas bundles the paper's power and throughput analyzers with
// the ranges used in Figures 6 and 7.
func StandardFormulas() string {
	return PowerFormula(100, 0.5, 2.25, 0.01) + "\n" + ThroughputFormula(100, 100, 3300, 10)
}
