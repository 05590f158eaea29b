package experiments

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"nepdvs/internal/core"
	"nepdvs/internal/workload"
)

// Experiment is one entry of the experiment table: an ID, the number of
// core.Run invocations it performs when run alone, and its runner. Shared
// entries (Figures 6–9) render the ipfwdr TDVS sweep that shared runs at
// most once per execution, so their Runs — the sweep's cost — is paid once
// however many of them run.
type Experiment struct {
	ID     string
	Runs   int
	Shared bool
	Run    func(o Options, shared func() (*TDVSSweepData, error)) ([]Report, error)
}

// sweepRuns is the cost of one RunTDVSSweep: a noDVS baseline plus the
// full threshold×window grid.
var sweepRuns = 1 + len(Thresholds)*len(Windows)

// table is every experiment in presentation order, the order of
// `dvsexplore all` and its reports. The run counts are static because
// every design grid is fixed by the paper (§4.1–§4.3).
var table = []Experiment{
	one("fig1", 0, func(Options) (Report, error) { return Fig1(), nil }), // analytic, no simulation
	one("fig2", 0, func(Options) (Report, error) { return Fig2() }),
	one("fig5", 0, func(Options) (Report, error) { return Fig5() }),
	view("fig6", Fig6),
	view("fig7", Fig7),
	view("fig8", Fig8),
	view("fig9", Fig9),
	one("fig10", len(Windows)+1, Fig10),               // noDVS baseline + one EDVS run per window
	one("ablation-hysteresis", 4, AblationHysteresis), // hysteresis bands
	one("ablation-penalty", 5, AblationPenalty),       // penalty points
	one("ablation-combined", 4, AblationCombined),     // policies
	one("ablation-oracle", 2*2, AblationOracle),       // windows × {TDVS, oracle}
	one("idle", 1, IdleStudy),
	one("fig11", 4*3*3, func(o Options) (Report, error) { // benchmarks × traffic levels × policies
		r, _, err := Fig11(o)
		return r, err
	}),
	// The paper ends §4.1 noting its optimal configuration "is specific to
	// this particular ipfwdr application"; these repeat the full sweep for
	// the other three benchmarks.
	benchSweep(workload.URL),
	benchSweep(workload.NAT),
	benchSweep(workload.MD4),
	one("fault_sweep", 4*4, FaultSweep),     // intensities × policies
	one("policy_compare", 4, PolicyCompare), // one run per registry policy
	one("summary", 4*4*3, Summary),          // benchmarks × policies × seeds
}

// one adapts a single-report experiment that does not draw on the shared
// sweep.
func one(id string, runs int, f func(Options) (Report, error)) Experiment {
	return Experiment{ID: id, Runs: runs, Run: func(o Options, _ func() (*TDVSSweepData, error)) ([]Report, error) {
		r, err := f(o)
		if err != nil {
			return nil, err
		}
		return []Report{r}, nil
	}}
}

// view adapts a figure rendered from the shared ipfwdr sweep.
func view(id string, fig func(*TDVSSweepData) (Report, error)) Experiment {
	return Experiment{ID: id, Runs: sweepRuns, Shared: true, Run: func(_ Options, shared func() (*TDVSSweepData, error)) ([]Report, error) {
		d, err := shared()
		if err != nil {
			return nil, err
		}
		r, err := fig(d)
		if err != nil {
			return nil, err
		}
		return []Report{r}, nil
	}}
}

// benchSweep runs the §4.1 design-space sweep for a non-ipfwdr benchmark
// and reports its Figures 8/9-style percentile surfaces plus the optimal
// points.
func benchSweep(bench workload.Name) Experiment {
	return Experiment{ID: "sweep-" + string(bench), Runs: sweepRuns, Run: func(o Options, _ func() (*TDVSSweepData, error)) ([]Report, error) {
		d, err := RunTDVSSweep(bench, o)
		if err != nil {
			return nil, err
		}
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
// skip decision, so a progress total taken from PlannedRuns counts exactly
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

// PlannedRuns returns the number of core.Run invocations Execute performs:
// the runs of each step not resumed from the checkpoint, with the shared
// sweep counted once if any such step draws on it.
func (p *Plan) PlannedRuns() int {
	total, shared := 0, false
	for _, e := range p.steps {
		if _, ok := p.stored[e.ID]; ok || (e.Shared && shared) {
			continue
		}
		shared = shared || e.Shared
		total += e.Runs
	}
	return total
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
// other step's reports are still returned. The shared ipfwdr sweep runs
// only if some computed step asks for it.
func (p *Plan) Execute(o Options) ([]Report, []error) {
	shared := sync.OnceValues(func() (*TDVSSweepData, error) {
		return RunTDVSSweep(workload.IPFwdr, o)
	})
	var out []Report
	var errs []error
	for _, e := range p.steps {
		rs, ok := p.stored[e.ID]
		if !ok {
			var err error
			rs, err = e.Run(o, shared)
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
