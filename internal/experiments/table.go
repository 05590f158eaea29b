package experiments

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"nepdvs/internal/core"
	"nepdvs/internal/workload"
)

// Experiment is one entry of the experiment table: an ID, the simulations
// it needs and the renderer of its reports. Configs is nil for an analytic
// experiment. Report receives the results of Configs(o) in order and must
// treat them as read-only: a plan runs each distinct run key once and hands
// the same result to every step that declares it.
type Experiment struct {
	ID      string
	Configs func(o Options) ([]core.RunConfig, error)
	Report  func(o Options, results []*core.RunResult) ([]Report, error)
}

// table is every experiment in presentation order, the order of
// `dvsexplore all` and its reports.
var table = []Experiment{
	one("fig1", nil, func(Options, []*core.RunResult) (Report, error) { return Fig1(), nil }), // analytic, no simulation
	one("fig2", nil, func(Options, []*core.RunResult) (Report, error) { return Fig2() }),
	one("fig5", nil, func(Options, []*core.RunResult) (Report, error) { return Fig5() }),
	view("fig6", Fig6),
	view("fig7", Fig7),
	view("fig8", Fig8),
	view("fig9", Fig9),
	one("fig10", fig10Configs, fig10Report),
	one("ablation-hysteresis", hysteresisConfigs, hysteresisReport),
	one("ablation-penalty", penaltyConfigs, penaltyReport),
	one("ablation-combined", combinedConfigs, combinedReport),
	one("ablation-oracle", oracleConfigs, oracleReport),
	one("idle", idleConfigs, idleReport),
	one("fig11", fig11Configs, fig11Report),
	// The paper ends §4.1 noting its optimal configuration "is specific to
	// this particular ipfwdr application"; these repeat the full sweep for
	// the other three benchmarks.
	benchSweep(workload.URL),
	benchSweep(workload.NAT),
	benchSweep(workload.MD4),
	one("fault_sweep", faultSweepConfigs, faultSweepReport),
	one("policy_compare", PolicyCompareConfigs, func(_ Options, rs []*core.RunResult) (Report, error) {
		return PolicyCompareReport(rs)
	}),
	one("summary", summaryConfigs, summaryReport),
}

// one adapts a single-report experiment.
func one(id string, configs func(Options) ([]core.RunConfig, error), report func(Options, []*core.RunResult) (Report, error)) Experiment {
	return Experiment{ID: id, Configs: configs, Report: func(o Options, rs []*core.RunResult) ([]Report, error) {
		r, err := report(o, rs)
		if err != nil {
			return nil, err
		}
		return []Report{r}, nil
	}}
}

// view adapts a figure rendered from the ipfwdr TDVS sweep.
func view(id string, fig func(*TDVSSweepData) (Report, error)) Experiment {
	return one(id, sweepConfigs(workload.IPFwdr), func(o Options, rs []*core.RunResult) (Report, error) {
		return fig(sweepData(workload.IPFwdr, o, rs))
	})
}

// benchSweep runs the §4.1 design-space sweep for a non-ipfwdr benchmark
// and reports its Figures 8/9-style percentile surfaces plus the optimal
// points.
func benchSweep(bench workload.Name) Experiment {
	return Experiment{ID: "sweep-" + string(bench), Configs: sweepConfigs(bench), Report: func(o Options, rs []*core.RunResult) ([]Report, error) {
		d := sweepData(bench, o, rs)
		p, err := Fig8(d)
		if err != nil {
			return nil, err
		}
		p.ID = fmt.Sprintf("sweep-%s-power", bench)
		t, err := Fig9(d)
		if err != nil {
			return nil, err
		}
		t.ID = fmt.Sprintf("sweep-%s-throughput", bench)
		return []Report{p, t}, nil
	}}
}

// runPool is a plan's simulations: the distinct run configs of every step,
// in plan order, plus each step's configs as indexes into them and each
// step's Configs error.
type runPool struct {
	cfgs []core.RunConfig
	runs [][]int // by step; empty for a step that runs nothing
	errs []error // by step
}

// pool walks the plan's steps once. A config whose run key an earlier
// config already claimed reuses that config's index; a config without a
// key always gets its own. The walk only indexes a map, so the pool never
// depends on map order.
func (p *Plan) pool(o Options) runPool {
	pl := runPool{runs: make([][]int, len(p.steps)), errs: make([]error, len(p.steps))}
	byKey := map[string]int{}
	for s, e := range p.steps {
		if e.Configs == nil {
			continue
		}
		cfgs, err := e.Configs(o)
		if err != nil {
			pl.errs[s] = err
			continue
		}
		for _, cfg := range cfgs {
			k, err := core.RunKey(cfg)
			j, ok := byKey[k]
			if err != nil || !ok {
				j = len(pl.cfgs)
				pl.cfgs = append(pl.cfgs, cfg)
				if err == nil {
					byKey[k] = j
				}
			}
			pl.runs[s] = append(pl.runs[s], j)
		}
	}
	return pl
}

// results returns step s's run results in its Configs order, given the
// outcomes of the pool's runs. A run that still failed after its retry
// fails the step.
func (pl runPool) results(s int, out []core.BatchResult) ([]*core.RunResult, error) {
	rs := make([]*core.RunResult, len(pl.runs[s]))
	for i, j := range pl.runs[s] {
		if err := out[j].Err; err != nil {
			c := pl.cfgs[j]
			return nil, fmt.Errorf("experiments: run %d of %d (%s, %s, seed %d): %w",
				i+1, len(rs), c.Bench, c.Policy, c.Traffic.Seed, err)
		}
		rs[i] = out[j].Result
	}
	return rs, nil
}

// runAll returns the results of cfgs in order, simulating each distinct run
// key once in one core.RunBatch. A run that still fails after its retry
// fails the call.
func runAll(cfgs []core.RunConfig, o Options) ([]*core.RunResult, error) {
	pl := (&Plan{steps: []Experiment{{Configs: func(Options) ([]core.RunConfig, error) { return cfgs, nil }}}}).pool(o)
	return pl.results(0, core.RunBatch(pl.cfgs, o.Parallelism, o.Cache))
}

// IDs returns the experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.ID
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID ("all" runs the whole table).
//
//nepvet:allow api/unused the root bench and policy_compare tests run one experiment with it
func Run(id string, o Options) ([]Report, error) {
	p, err := NewPlan([]string{id})
	if err != nil {
		return nil, err
	}
	rs, errs := p.Execute(o)
	return rs, errors.Join(errs...)
}

// Plan is a validated selection of experiments. PlannedRuns and Execute
// take their runs from one pool, so a progress total taken from PlannedRuns
// counts exactly the runs Execute starts.
type Plan struct {
	steps []Experiment
}

// NewPlan selects the experiments args names, in argument order; no
// arguments, or the single argument "all", select the whole table in
// presentation order. An unknown or repeated ID is an error, so a bad
// selection is rejected before any simulation starts.
func NewPlan(args []string) (*Plan, error) {
	if len(args) == 0 || (len(args) == 1 && args[0] == "all") {
		return &Plan{steps: table}, nil
	}
	p := &Plan{}
	for i, id := range args {
		if slices.Contains(args[:i], id) {
			return nil, fmt.Errorf("experiments: experiment %q named twice", id)
		}
		j := slices.IndexFunc(table, func(e Experiment) bool { return e.ID == id })
		if j < 0 {
			return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
		}
		p.steps = append(p.steps, table[j])
	}
	return p, nil
}

// PlannedRuns returns the number of simulations Execute(o) performs: the
// size of the pool Execute runs. A step whose configs cannot be built runs
// nothing.
func (p *Plan) PlannedRuns(o Options) int {
	return len(p.pool(o.withDefaults()).cfgs)
}

// Execute runs the plan's pool as one core.RunBatch, then renders each
// step from its runs' results and returns the reports in plan order. A
// failing step's error, prefixed with its ID, is collected and every other
// step's reports are still returned.
func (p *Plan) Execute(o Options) ([]Report, []error) {
	o = o.withDefaults()
	pl := p.pool(o)
	out := core.RunBatch(pl.cfgs, o.Parallelism, o.Cache)
	var all []Report
	var errs []error
	for s, e := range p.steps {
		err := pl.errs[s]
		if err == nil {
			var results []*core.RunResult
			if results, err = pl.results(s, out); err == nil {
				var rs []Report
				rs, err = e.Report(o, results)
				all = append(all, rs...)
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.ID, err))
		}
	}
	return all, errs
}
