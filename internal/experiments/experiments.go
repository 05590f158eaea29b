// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulation and analysis stack:
//
//	Fig1  — IXP family power/performance table
//	Fig2  — edge-router day traffic distribution (max/med/min)
//	Fig5  — the VF/threshold scaling ladder
//	Fig6  — TDVS power CDFs over thresholds × window sizes (+ noDVS)
//	Fig7  — TDVS throughput CCDFs over the same sweep
//	Fig8  — 80th-percentile power surface over (threshold, window)
//	Fig9  — 80th-percentile throughput surface over (threshold, window)
//	Fig10 — EDVS power and throughput distributions over window sizes
//	Fig11 — noDVS/EDVS/TDVS power comparison across benchmarks × traffic
//	Idle  — the §4.2 idle-time distribution study
//
// plus three ablations beyond the paper (hysteresis, penalty sweep, and the
// combined TDVS+EDVS policy the paper declined to build).
//
// Every experiment declares its simulations as run configs and renders
// Reports from their results; Plan.Execute runs the configs. A Report's
// Body is gnuplot-style text: the same rows/series the paper plots.
// Absolute values are calibrated to our substrate; the shapes are the
// reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/loc"
	"nepdvs/internal/obs"
	"nepdvs/internal/plot"
	"nepdvs/internal/policy"
	"nepdvs/internal/sim"
	"nepdvs/internal/stats"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// NamedChart is one rendered SVG figure attached to a report.
type NamedChart struct {
	// Name is the file-name suffix after the report ID, e.g.
	// "-threshold-1000" for fig6-threshold-1000.svg; a report's only chart
	// has the empty suffix; any other suffix starts with "-". Deriving
	// chart files from unique report IDs keeps two reports from ever
	// writing the same chart.
	Name string
	SVG  string
}

// Report is one regenerated artifact.
type Report struct {
	ID     string // e.g. "fig6"
	Title  string
	Body   string // gnuplot-style data blocks
	Charts []NamedChart
	// Assertions, when non-nil, is the unified assertion report over the
	// experiment's LOC formula results (per-formula verdicts, violation
	// witnesses, density). Built purely from run results, so it is
	// byte-identical across repeats and service paths.
	Assertions *loc.Report
}

func (r Report) String() string {
	return fmt.Sprintf("==== %s: %s ====\n%s", r.ID, r.Title, r.Body)
}

// distSeries converts a distribution result into a plottable series.
func distSeries(name string, d *loc.DistResult) plot.Series {
	view := d.View()
	s := plot.Series{Name: name}
	for k, v := range view {
		var edge float64
		if d.Op == loc.DistCCDF {
			edge = d.Hist.UpperEdge(k - 1)
		} else {
			edge = d.Hist.UpperEdge(k)
		}
		if math.IsInf(edge, 0) {
			continue
		}
		s.X = append(s.X, edge)
		s.Y = append(s.Y, v)
	}
	return s
}

// Options tunes experiment cost. The zero value means the paper's settings.
type Options struct {
	// Cycles per simulation run (default: the paper's 8·10⁶).
	Cycles int64
	// Parallelism bounds concurrent simulations (default 8).
	Parallelism int
	// Seed selects the traffic realization (default 1).
	Seed int64
	// RunTimeout bounds each simulation run's wall-clock time (0 =
	// unbounded); see core.RunConfig.Timeout.
	RunTimeout time.Duration
	// Metrics, when non-nil, receives every run's observability counters
	// (see core.RunConfig.Metrics): the kernel's event and heap-operation
	// counts, the chip's packet path, and the core_runs/core_ref_cycles
	// throughput denominators. One registry may be shared across the
	// experiment's parallel runs — and across experiments — safely; the
	// bench harness derives its domain throughput (cycles/sec,
	// packets/sec) from it.
	Metrics *obs.Registry
	// Cache, when non-nil, serves and stores the runs (see core.RunCached).
	// It never changes a result, so it stays out of the manifest's
	// serialized options.
	Cache core.RunCache `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.Cycles <= 0 {
		o.Cycles = 8_000_000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// baseConfig assembles the default run config for a benchmark at a traffic
// level with the options' cycle budget and per-run watchdog applied. Every
// experiment builds its runs through here, so -run-timeout protection
// reaches each simulation.
func (o Options) baseConfig(bench workload.Name, lv traffic.Level) (core.RunConfig, error) {
	cfg, err := core.DefaultRunConfig(bench, lv, o.Seed)
	if err != nil {
		return core.RunConfig{}, err
	}
	cfg.Cycles = o.Cycles
	cfg.Timeout = o.RunTimeout
	cfg.Metrics = o.Metrics
	return cfg, nil
}

// The paper's sweep axes.
var (
	// Thresholds are the four TDVS top thresholds of §4.1.
	Thresholds = []float64{800, 1000, 1200, 1400}
	// Windows are the four monitor windows of §4.1, in reference cycles.
	Windows = []int64{20000, 40000, 60000, 80000}
)

// Fig1 reproduces the paper's Figure 1: the Intel IXP family comparison.
// This is reference data from the paper (and the cited Intel datasheets),
// not a simulation output; it motivates the power problem.
func Fig1() Report {
	rows := []struct {
		desc                string
		v1200, v2400, v2800 string
	}{
		{"Performance(MIPS)", "1200", "4800", "23000"},
		{"Media Bandwidth(Gbps)", "1", "2.4", "10"},
		{"Frequency of ME(MHz)", "232", "600", "1400"},
		{"Number of MEs", "6", "8", "16"},
		{"Power(W)", "4.5", "10", "14"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s%10s%10s%10s\n", "Description", "IXP1200", "IXP2400", "IXP2800")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s%10s%10s%10s\n", r.desc, r.v1200, r.v2400, r.v2800)
	}
	return Report{ID: "fig1", Title: "Power and performance of Intel IXP NPUs", Body: b.String()}
}

// Fig2 reproduces the day-time IP packet rate distribution: per-5-minute
// max/median/min of the (synthetic NLANR-substitute) edge-router traffic
// between 9:47 and 16:43.
func Fig2() (Report, error) {
	m := traffic.DefaultDayModel()
	bins, err := m.Bins(9.78, 16.72, 5, 60)
	if err != nil {
		return Report{}, err
	}
	series := make([]plot.Series, 3)
	for k, name := range []string{"Max", "Med", "Min"} {
		series[k].Name = name
	}
	for _, b := range bins {
		for k, v := range []float64{b.Max, b.Med, b.Min} {
			series[k].X = append(series[k].X, b.Hour)
			series[k].Y = append(series[k].Y, v)
		}
	}
	chart := &plot.LineChart{
		Title:  "Example IP packets distribution",
		XLabel: "Time (hour of day)",
		YLabel: "Throughput (Mbps)",
		Series: series,
	}
	svg, err := chart.Render()
	if err != nil {
		return Report{}, err
	}
	return Report{
		ID:     "fig2",
		Title:  "Example IP packets distribution (synthetic edge-router day model)",
		Body:   traffic.RenderBins(bins),
		Charts: []NamedChart{{SVG: svg}},
	}, nil
}

// Fig5 reproduces the scaling-value table for a 1000 Mbps top threshold.
func Fig5() (Report, error) {
	l, err := policy.NewLadder(1000)
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "fig5", Title: "The detailed scaling values", Body: l.String()}, nil
}

// TDVSSweepData is the shared result of the §4.1 design-space sweep; four
// figures (6–9) are views of it.
type TDVSSweepData struct {
	Bench   workload.Name
	Options Options
	NoDVS   *core.RunResult
	Results []PointResult
}

// PointResult pairs a TDVS design point with its run's result.
type PointResult struct {
	Point  core.Point
	Result *core.RunResult
}

// find returns the sweep result at a design point.
func (d *TDVSSweepData) find(th float64, w int64) (*core.RunResult, error) {
	for _, r := range d.Results {
		if r.Point.ThresholdMbps == th && r.Point.WindowCycles == w {
			return r.Result, nil
		}
	}
	return nil, fmt.Errorf("experiments: no sweep result at threshold %v window %d", th, w)
}

// sweepConfigs declares the paper's §4.1 exploration for a benchmark: the
// high-traffic sample, the noDVS baseline, then thresholds 800–1400 ×
// windows 20k–80k in TDVSGrid order, all with the formula (2) and (3)
// analyzers attached.
func sweepConfigs(bench workload.Name) func(Options) ([]core.RunConfig, error) {
	return func(o Options) ([]core.RunConfig, error) {
		base, err := o.baseConfig(bench, traffic.LevelHigh)
		if err != nil {
			return nil, err
		}
		base.Formulas = core.StandardFormulas()
		cfgs := []core.RunConfig{base}
		for _, pt := range core.TDVSGrid(Thresholds, Windows) {
			cfgs = append(cfgs, core.TDVSPointConfig(base, pt))
		}
		return cfgs, nil
	}
}

// sweepData assembles the results of sweepConfigs.
func sweepData(bench workload.Name, o Options, rs []*core.RunResult) *TDVSSweepData {
	d := &TDVSSweepData{Bench: bench, Options: o, NoDVS: rs[0]}
	for i, pt := range core.TDVSGrid(Thresholds, Windows) {
		d.Results = append(d.Results, PointResult{Point: pt, Result: rs[i+1]})
	}
	return d
}

// RunTDVSSweep executes the paper's §4.1 exploration (sweepConfigs) as one
// batch: at Parallelism 1 the noDVS baseline runs first, then the grid in
// threshold-major order. The experiment table shares this sweep through
// its run pool instead; RunTDVSSweep serves callers that want the data
// without the reports, such as perfbench's sweep workload.
func RunTDVSSweep(bench workload.Name, o Options) (*TDVSSweepData, error) {
	o = o.withDefaults()
	cfgs, err := sweepConfigs(bench)(o)
	if err != nil {
		return nil, err
	}
	rs, err := runAll(cfgs, o)
	if err != nil {
		return nil, err
	}
	return sweepData(bench, o, rs), nil
}

func distOf(r *core.RunResult, name string) (*loc.DistResult, error) {
	lr, ok := r.LOCByName(name)
	if !ok || lr.Dist == nil {
		return nil, fmt.Errorf("experiments: run lacks %q distribution", name)
	}
	return lr.Dist, nil
}

// renderSweepDistributions emits, per threshold, a labelled block with one
// distribution table per window size plus the noDVS reference — the layout
// of Figures 6 and 7 — and one SVG chart per threshold.
func renderSweepDistributions(d *TDVSSweepData, formula, xLabel string) (string, []NamedChart, error) {
	var b strings.Builder
	var charts []NamedChart
	for _, th := range Thresholds {
		fmt.Fprintf(&b, "## threshold %g Mbps\n", th)
		chart := &plot.LineChart{
			Title:  fmt.Sprintf("%s -- threshold %gMbps", xLabel, th),
			XLabel: xLabel,
			YLabel: "Normalized # of instances",
			YFixed: true, YMin: 0, YMax: 1,
		}
		for _, w := range Windows {
			r, err := d.find(th, w)
			if err != nil {
				return "", nil, err
			}
			dist, err := distOf(r, formula)
			if err != nil {
				return "", nil, err
			}
			fmt.Fprintf(&b, "# series window=%dK\n%s\n", w/1000, dist.Render())
			chart.Series = append(chart.Series, distSeries(fmt.Sprintf("%dK", w/1000), dist))
		}
		noDist, err := distOf(d.NoDVS, formula)
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(&b, "# series noDVS\n%s\n", noDist.Render())
		chart.Series = append(chart.Series, distSeries("noDVS", noDist))
		svg, err := chart.Render()
		if err != nil {
			return "", nil, err
		}
		charts = append(charts, NamedChart{Name: fmt.Sprintf("-threshold-%g", th), SVG: svg})
	}
	return b.String(), charts, nil
}

// Fig6 renders the power distributions of the TDVS sweep (formula (2)).
func Fig6(d *TDVSSweepData) (Report, error) {
	body, charts, err := renderSweepDistributions(d, "power", "Power (W)")
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "fig6", Title: "Power under different design points with TDVS (" + string(d.Bench) + ")", Body: body, Charts: charts}, nil
}

// Fig7 renders the throughput distributions of the TDVS sweep (formula (3)).
func Fig7(d *TDVSSweepData) (Report, error) {
	body, charts, err := renderSweepDistributions(d, "throughput", "Throughput (Mbps)")
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "fig7", Title: "Throughput under different design points with TDVS (" + string(d.Bench) + ")", Body: body, Charts: charts}, nil
}

// surface builds the 80th-percentile surface of Figures 8 and 9.
func (d *TDVSSweepData) surface(formula string, upper bool, zLabel string) (*stats.Surface, error) {
	s := stats.NewSurface("threshold_mbps", "window_cycles", zLabel)
	for _, r := range d.Results {
		dist, err := distOf(r.Result, formula)
		if err != nil {
			return nil, err
		}
		var z float64
		if upper {
			z = dist.Hist.QuantileUpper(0.8)
		} else {
			z = dist.Hist.QuantileLower(0.8)
		}
		s.Set(r.Point.ThresholdMbps, float64(r.Point.WindowCycles), z)
	}
	return s, nil
}

// surfaceChart renders a percentile surface as a heat map.
func surfaceChart(s *stats.Surface, title string) ([]NamedChart, error) {
	xs, ys := s.Axes()
	z := make([][]float64, len(xs))
	for i, x := range xs {
		z[i] = make([]float64, len(ys))
		for j, y := range ys {
			if v, ok := s.Get(x, y); ok {
				z[i][j] = v
			} else {
				z[i][j] = math.NaN()
			}
		}
	}
	hm := &plot.HeatMap{
		Title: title, XLabel: s.XLabel, YLabel: s.YLabel,
		XTicks: xs, YTicks: ys, Z: z,
	}
	svg, err := hm.Render()
	if err != nil {
		return nil, err
	}
	return []NamedChart{{SVG: svg}}, nil
}

// Fig8 renders the power surface: the vertex at (threshold, window) is the
// value below which 80% of formula (2) instances fall.
func Fig8(d *TDVSSweepData) (Report, error) {
	s, err := d.surface("power", true, "power_w_p80")
	if err != nil {
		return Report{}, err
	}
	body := s.Render()
	x, y, z := s.MinZ()
	body += fmt.Sprintf("# min power point: threshold=%g window=%g power=%.3f W\n", x, y, z)
	charts, err := surfaceChart(s, "p80 power (W) with TDVS")
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "fig8", Title: "80th-percentile power surface with TDVS (" + string(d.Bench) + ")", Body: body, Charts: charts}, nil
}

// Fig9 renders the throughput surface: the vertex at (threshold, window) is
// the value above which 80% of formula (3) instances fall.
func Fig9(d *TDVSSweepData) (Report, error) {
	s, err := d.surface("throughput", false, "throughput_mbps_p80")
	if err != nil {
		return Report{}, err
	}
	body := s.Render()
	x, y, z := s.MaxZ()
	body += fmt.Sprintf("# max throughput point: threshold=%g window=%g throughput=%.0f Mbps\n", x, y, z)
	charts, err := surfaceChart(s, "p80 throughput (Mbps) with TDVS")
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "fig9", Title: "80th-percentile throughput surface with TDVS (" + string(d.Bench) + ")", Body: body, Charts: charts}, nil
}

// fig10Configs declares the §4.2 EDVS study: ipfwdr, idle threshold 10%,
// noDVS then windows 20k–80k.
func fig10Configs(o Options) ([]core.RunConfig, error) {
	base, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
	if err != nil {
		return nil, err
	}
	base.Formulas = core.StandardFormulas()
	cfgs := []core.RunConfig{base}
	for _, w := range Windows {
		cfg := base
		cfg.Policy = core.EDVSPolicy(w, 0.10)
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// fig10Report renders both the power and throughput distributions of the
// EDVS study.
func fig10Report(_ Options, rs []*core.RunResult) (Report, error) {
	labels := []string{"noDVS"}
	for _, w := range Windows {
		labels = append(labels, fmt.Sprintf("%dK", w/1000))
	}
	var b strings.Builder
	var charts []NamedChart
	for _, part := range []string{"power", "throughput"} {
		fmt.Fprintf(&b, "## %s distributions (EDVS, idle threshold 10%%)\n", part)
		xLabel := "Power (W)"
		if part == "throughput" {
			xLabel = "Throughput (Mbps)"
		}
		chart := &plot.LineChart{
			Title: "EDVS " + part, XLabel: xLabel, YLabel: "Normalized # of instances",
			YFixed: true, YMin: 0, YMax: 1,
		}
		for i, res := range rs {
			dist, err := distOf(res, part)
			if err != nil {
				return Report{}, err
			}
			fmt.Fprintf(&b, "# series %s\n%s\n", labels[i], dist.Render())
			chart.Series = append(chart.Series, distSeries(labels[i], dist))
		}
		svg, err := chart.Render()
		if err != nil {
			return Report{}, err
		}
		charts = append(charts, NamedChart{Name: "-" + part, SVG: svg})
	}
	return Report{ID: "fig10", Title: "Power and performance distribution for EDVS (ipfwdr)", Body: b.String(), Charts: charts}, nil
}

// fig11Policies are the §4.3 comparison's policies at their §4.1/§4.2
// operating points (TDVS: 1400 Mbps / 40k — the power-oriented optimum;
// EDVS: 10% / 40k).
var fig11Policies = []core.PolicyConfig{
	{},
	core.EDVSPolicy(40000, 0.10),
	core.TDVSPolicy(1400, 40000),
}

// fig11Levels are the three traffic levels of the §4.3 comparison.
var fig11Levels = []traffic.Level{traffic.LevelLow, traffic.LevelMedium, traffic.LevelHigh}

// fig11Configs declares the §4.3 comparison: all four benchmarks × three
// traffic levels × {noDVS, EDVS, TDVS}, policy innermost.
func fig11Configs(o Options) ([]core.RunConfig, error) {
	var cfgs []core.RunConfig
	for _, bench := range workload.All {
		for _, lv := range fig11Levels {
			for _, pol := range fig11Policies {
				cfg, err := o.baseConfig(bench, lv)
				if err != nil {
					return nil, err
				}
				cfg.Formulas = core.PowerFormula(100, 0.4, 1.8, 0.01)
				cfg.Policy = pol
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs, nil
}

// fig11Report renders the power distribution of each comparison cell.
func fig11Report(_ Options, rs []*core.RunResult) (Report, error) {
	var b strings.Builder
	i := 0
	for _, bench := range workload.All {
		for _, lv := range fig11Levels {
			for _, pol := range fig11Policies {
				res := rs[i]
				i++
				dist, err := distOf(res, "power")
				if err != nil {
					return Report{}, err
				}
				fmt.Fprintf(&b, "## %s / %s traffic / %s (mean %.3f W, sent %.0f Mbps, loss %.4f)\n%s\n",
					bench, lv, pol,
					res.Stats.AvgPowerW, res.Stats.SentMbps(), res.Stats.LossFrac(),
					dist.Render())
			}
		}
	}
	return Report{ID: "fig11", Title: "Power comparisons for employing DVS", Body: b.String()}, nil
}

// idleConfigs declares the §4.2 idle-time distribution analysis: per-ME
// per-window idle fractions under high traffic, via LOC hist analyzers.
func idleConfigs(o Options) ([]core.RunConfig, error) {
	cfg, err := o.baseConfig(workload.IPFwdr, traffic.LevelHigh)
	if err != nil {
		return nil, err
	}
	cfg.Chip.IdleSampleWindow = sim.NewClock(cfg.Chip.RefMHz).Cycles(40000)
	var formulas []string
	for me := 0; me < cfg.Chip.NumMEs; me++ {
		formulas = append(formulas, core.IdleFormula(me))
	}
	cfg.Formulas = strings.Join(formulas, "\n")
	return []core.RunConfig{cfg}, nil
}

func idleReport(_ Options, rs []*core.RunResult) (Report, error) {
	res := rs[0]
	chip := res.Config.Chip
	var b strings.Builder
	for me := 0; me < chip.NumMEs; me++ {
		role := "receiving"
		if me >= chip.RxMEs {
			role = "transmitting"
		}
		lr, ok := res.LOCByName(fmt.Sprintf("idle_m%d", me))
		if !ok {
			return Report{}, fmt.Errorf("experiments: missing idle result for ME%d", me)
		}
		fmt.Fprintf(&b, "## ME%d (%s): idle fraction histogram over 40k-cycle windows\n%s\n", me, role, lr.Dist.Render())
	}
	return Report{ID: "idle", Title: "§4.2 idle-time distribution study (ipfwdr, high traffic)", Body: b.String()}, nil
}
