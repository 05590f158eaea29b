package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

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

// run computes the experiment's reports, simulating only the configs memo
// does not already hold (see runAll).
func (e Experiment) run(o Options, memo map[string]*core.RunResult) ([]Report, error) {
	var results []*core.RunResult
	if e.Configs != nil {
		cfgs, err := e.Configs(o)
		if err != nil {
			return nil, err
		}
		if results, err = runAll(cfgs, o, memo); err != nil {
			return nil, err
		}
	}
	return e.Report(o, results)
}

// newRuns returns each config's run key ("" when none can be derived) and
// the indexes of the configs that must be simulated: the first config of
// each key memo does not hold, and every config without a key. It only
// indexes memo, so what it returns never depends on map order.
func newRuns(cfgs []core.RunConfig, memo map[string]*core.RunResult) (keys []string, todo []int) {
	keys = make([]string, len(cfgs))
	claimed := map[string]bool{}
	for i, cfg := range cfgs {
		if k, err := core.RunKey(cfg); err == nil {
			keys[i] = k
			if _, ok := memo[k]; ok || claimed[k] {
				continue
			}
			claimed[k] = true
		}
		todo = append(todo, i)
	}
	return keys, todo
}

// runAll returns the results of cfgs in order. It simulates the configs
// newRuns picks as one core.RunBatch and records their results in memo
// under their run keys, so a later call with an equal config reuses the
// result instead of simulating again. A run that still fails after its
// retry fails the call.
func runAll(cfgs []core.RunConfig, o Options, memo map[string]*core.RunResult) ([]*core.RunResult, error) {
	keys, todo := newRuns(cfgs, memo)
	batch := make([]core.RunConfig, len(todo))
	for j, i := range todo {
		batch[j] = cfgs[i]
	}
	out := make([]*core.RunResult, len(cfgs))
	var first error
	for j, r := range core.RunBatch(context.Background(), batch, o.Parallelism, nil) {
		i := todo[j]
		if r.Err != nil {
			if first == nil {
				first = fmt.Errorf("experiments: run %d of %d (%s, %s, seed %d): %w",
					i+1, len(cfgs), cfgs[i].Bench, cfgs[i].Policy, cfgs[i].Traffic.Seed, r.Err)
			}
			continue
		}
		out[i] = r.Result
		if keys[i] != "" {
			memo[keys[i]] = r.Result
		}
	}
	if first != nil {
		return nil, first
	}
	for i, r := range out {
		if r == nil {
			out[i] = memo[keys[i]]
		}
	}
	return out, nil
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
// checkpoint already holds for them. PlannedRuns and Execute share that one
// skip decision and one run-key deduplication, so a progress total taken
// from PlannedRuns counts exactly the runs Execute starts.
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
// distinct run keys over the configs of every step not resumed from the
// checkpoint. It walks the same configs through the same newRuns as
// Execute, so the two cannot drift apart. A step whose configs cannot be
// built runs nothing.
func (p *Plan) PlannedRuns(o Options) int {
	o = o.withDefaults()
	memo := map[string]*core.RunResult{}
	n := 0
	for _, e := range p.steps {
		if _, ok := p.stored[e.ID]; ok || e.Configs == nil {
			continue
		}
		cfgs, err := e.Configs(o)
		if err != nil {
			continue
		}
		keys, todo := newRuns(cfgs, memo)
		n += len(todo)
		for _, i := range todo {
			if keys[i] != "" {
				memo[keys[i]] = nil
			}
		}
	}
	return n
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

// Execute runs the plan's steps in order and returns their reports in that
// order. A resumed step replays its stored reports; a computed step is
// recorded in the checkpoint before the next begins. A failing step's
// error, prefixed with its ID, is collected and the loop moves on, so every
// other step's reports are still returned. A run whose key an earlier step
// already produced is not simulated again.
func (p *Plan) Execute(o Options) ([]Report, []error) {
	o = o.withDefaults()
	memo := map[string]*core.RunResult{}
	var out []Report
	var errs []error
	for _, e := range p.steps {
		rs, ok := p.stored[e.ID]
		if !ok {
			var err error
			rs, err = e.run(o, memo)
			if err == nil && p.ck != nil {
				err = p.ck.Save(e.ID, rs)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", e.ID, err))
			}
		}
		out = append(out, rs...)
	}
	return out, errs
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
