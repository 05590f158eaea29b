package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

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

// runPool is a plan's simulations: the distinct run configs of every step
// not resumed from the checkpoint, in plan order, plus each step's configs
// as indexes into them and each step's Configs error.
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
		if _, ok := p.stored[e.ID]; ok || e.Configs == nil {
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
	return pl.results(0, core.RunBatch(context.Background(), pl.cfgs, o.Parallelism, nil))
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
func Run(id string, o Options) ([]Report, error) {
	p, err := NewPlan([]string{id}, nil)
	if err != nil {
		return nil, err
	}
	rs, errs := p.Execute(o)
	return rs, errors.Join(errs...)
}

// Plan is a validated selection of experiments together with the reports a
// checkpoint already holds for them. PlannedRuns and Execute take their runs
// from one pool, so a progress total taken from PlannedRuns counts exactly
// the runs Execute starts.
type Plan struct {
	steps  []Experiment
	stored map[string][]Report // reports resumed from ck, by step ID
	ck     *core.Checkpoint
}

// NewPlan selects the experiments args names, in argument order; no
// arguments, or the single argument "all", select the whole table in
// presentation order. An unknown or repeated ID is an error, so a bad
// selection is rejected before any simulation starts. ck may be nil; else
// each step it already holds is resumed from it, and Execute records each
// step it computes there.
func NewPlan(args []string, ck *core.Checkpoint) (*Plan, error) {
	p := &Plan{stored: map[string][]Report{}, ck: ck}
	if len(args) == 0 || (len(args) == 1 && args[0] == "all") {
		p.steps = table
	} else {
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
	}
	if ck != nil {
		for _, e := range p.steps {
			if rs, ok := loadStep(ck, e.ID); ok {
				p.stored[e.ID] = rs
			}
		}
	}
	return p, nil
}

// PlannedRuns returns the number of simulations Execute(o) performs: the
// size of the pool Execute runs. A step whose configs cannot be built runs
// nothing.
func (p *Plan) PlannedRuns(o Options) int {
	return len(p.pool(o.withDefaults()).cfgs)
}

// Resumed returns the IDs of the steps resumed from the checkpoint, in plan
// order.
func (p *Plan) Resumed() []string {
	var ids []string
	for _, e := range p.steps {
		if _, ok := p.stored[e.ID]; ok {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// Execute runs the plan's pool as one core.RunBatch and returns the steps'
// reports in plan order. A resumed step replays its stored reports; a
// computed step renders and is recorded in the checkpoint as soon as the
// last run it declares finishes. A failing step's error, prefixed with its
// ID, is collected and every other step's reports are still returned.
func (p *Plan) Execute(o Options) ([]Report, []error) {
	o = o.withDefaults()
	pl := p.pool(o)
	reports := make([][]Report, len(p.steps))
	errs := make([]error, len(p.steps))
	out := make([]core.BatchResult, len(pl.cfgs))
	finish := func(s int) {
		e := p.steps[s]
		rs, ok := p.stored[e.ID]
		err := pl.errs[s]
		if !ok && err == nil {
			var results []*core.RunResult
			if results, err = pl.results(s, out); err == nil {
				rs, err = e.Report(o, results)
			}
			if err == nil && p.ck != nil {
				err = p.ck.Save(e.ID, rs)
			}
		}
		if err != nil {
			errs[s] = fmt.Errorf("%s: %w", e.ID, err)
		}
		reports[s] = rs
	}
	for s, runs := range pl.runs {
		if len(runs) == 0 {
			finish(s)
		}
	}
	var mu sync.Mutex
	done := make([]bool, len(pl.cfgs))
	core.RunBatch(context.Background(), pl.cfgs, o.Parallelism, func(j int, r core.BatchResult) {
		mu.Lock()
		defer mu.Unlock()
		out[j], done[j] = r, true
		for s, runs := range pl.runs {
			if slices.Contains(runs, j) && !slices.ContainsFunc(runs, func(i int) bool { return !done[i] }) {
				finish(s)
			}
		}
	})
	var all []Report
	for _, rs := range reports {
		all = append(all, rs...)
	}
	return all, slices.DeleteFunc(errs, func(err error) bool { return err == nil })
}

// loadStep returns the reports ck holds for step id. A missing — or
// unreadable — entry reports false, so the step is recomputed and its
// entry overwritten; atomic writes make corruption a rerun, not a wedge.
func loadStep(ck *core.Checkpoint, id string) ([]Report, bool) {
	var rs []Report
	if ok, err := ck.Load(id, &rs); err != nil || !ok {
		return nil, false
	}
	// Entries written before chart names became suffixes of the report ID
	// hold whole file stems: the report ID plus the suffix, or another
	// figure's ID for the only chart of a sweep-* report ("fig8" under
	// sweep-md4-power). Suffixes are empty or start with "-".
	for i, r := range rs {
		for j, ch := range r.Charts {
			if ch.Name == "" || strings.HasPrefix(ch.Name, "-") {
				continue
			}
			rs[i].Charts[j].Name = ""
			if strings.HasPrefix(ch.Name, r.ID) {
				rs[i].Charts[j].Name = ch.Name[len(r.ID):]
			}
		}
	}
	return rs, true
}
