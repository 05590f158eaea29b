package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nepdvs/internal/cache"
	"nepdvs/internal/core"
)

func TestPlannedRuns(t *testing.T) {
	sweep := 1 + len(Thresholds)*len(Windows)
	cases := []struct {
		args []string
		want int
	}{
		{nil, 188},
		{[]string{"all"}, 188},
		{[]string{"fig10"}, 5},
		{[]string{"fig6", "fig7"}, sweep}, // named figures share the sweep too
		{[]string{"fig6", "fig10"}, sweep + 4},
		{[]string{"fig1", "idle", "summary"}, 0 + 1 + 48},
		{[]string{"ablation-combined", "summary"}, 48},
		{[]string{"ablation-hysteresis", "ablation-penalty", "ablation-oracle"}, 4 + 4 + 3},
		{[]string{"fault_sweep"}, 16},
		{[]string{"policy_compare"}, 4},
	}
	for _, c := range cases {
		p, err := NewPlan(c.args)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.PlannedRuns(testOpts); got != c.want {
			t.Errorf("PlannedRuns(%v) = %d, want %d", c.args, got, c.want)
		}
	}
	for _, args := range [][]string{{"no-such-experiment"}, {"fig10", "bogus"}, {"fig1", "fig1"}, {"fig1", "all"}} {
		if _, err := NewPlan(args); err == nil {
			t.Errorf("NewPlan(%v) accepted", args)
		}
	}
}

// TestRunCheckpointedResume re-executes an interrupted plan. Resume goes
// through the run cache, which stores each run as it ends: executed again
// over the same cache directory, the plan simulates only the runs whose
// entries are lost, and its reports and charts are the uninterrupted ones.
func TestRunCheckpointedResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	// The hook fires from concurrent run workers.
	var runs atomic.Int64
	remove := ObserveRuns(nil, func(_ time.Duration, _ bool) { runs.Add(1) })
	defer remove()

	o := testOpts
	o.Cycles = 300_000
	p, err := NewPlan([]string{"idle", "fig10"})
	if err != nil {
		t.Fatal(err)
	}
	execute := func() []string {
		t.Helper()
		// Each execution opens the directory afresh, as a new process would.
		store, err := cache.Open(dir, cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		o := o
		o.Cache = store
		rs, errs := p.Execute(o)
		if len(errs) > 0 {
			t.Fatal(errs)
		}
		var out []string
		for _, r := range rs {
			out = append(out, r.String())
			for _, ch := range r.Charts {
				out = append(out, ch.SVG)
			}
		}
		return out
	}
	first := execute()
	planned := p.PlannedRuns(o)
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != int64(planned) || len(entries) != planned {
		t.Fatalf("first execution simulated %d runs and stored %d, want %d each", n, len(entries), planned)
	}

	const lost = 2
	for _, e := range entries[:lost] {
		if err := os.Remove(e); err != nil {
			t.Fatal(err)
		}
	}
	runs.Store(0)
	second := execute()
	if n := runs.Load(); n != lost {
		t.Errorf("resumed execution simulated %d runs, want %d", n, lost)
	}
	if !slices.Equal(first, second) {
		t.Error("resumed reports differ from the uninterrupted ones")
	}
}

// TestExecuteSavesStepOnItsLastRun executes a plan serially over a run
// cache. Each run is stored as it ends, before the next starts, so a step
// is saved whole once its last run ends and an interrupted plan loses only
// the run in flight.
func TestExecuteSavesStepOnItsLastRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	store, err := cache.Open(dir, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := func() int {
		names, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}
	// At parallelism 1 the runs are serial, so the hook needs no lock.
	var stored []int
	remove := ObserveRuns(nil, func(_ time.Duration, _ bool) { stored = append(stored, entries()) })
	defer remove()
	p, err := NewPlan([]string{"fig10", "idle"})
	if err != nil {
		t.Fatal(err)
	}
	o := testOpts
	o.Parallelism = 1
	o.Cache = store
	if _, errs := p.Execute(o); len(errs) > 0 {
		t.Fatal(errs)
	}
	// The hook fires at the end of each run, just before the cache stores
	// it: fig10's five runs are all stored when idle's run ends.
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(stored, want) {
		t.Errorf("cache entries at each run's end = %v, want %v", stored, want)
	}
	if n := entries(); n != 6 {
		t.Errorf("cache holds %d entries after the plan, want 6", n)
	}
}

// TestExecuteSurvivesFailingStep runs plans in which some steps' configs
// hold a run that cannot succeed. Each failing step fails whole, naming the
// run; every other step's reports are still returned, and a failing run
// two steps declare is attempted only once, plus its retry.
func TestExecuteSurvivesFailingStep(t *testing.T) {
	invalid := func(configs func(Options) ([]core.RunConfig, error), i int) func(Options) ([]core.RunConfig, error) {
		return func(o Options) ([]core.RunConfig, error) {
			cfgs, err := configs(o)
			cfgs[i].Policy = core.TDVSPolicy(1000, -1)
			return cfgs, err
		}
	}
	cases := []struct {
		name     string
		ids      []string       // nil: the whole table
		broken   map[string]int // step ID -> index of its invalid config
		errs     []string       // error prefixes, in plan order
		attempts int64          // failed run attempts
	}{{
		// fig6 already produced all of fig7's other runs; summary's
		// invalid run is one traffic seed of one cell.
		name:   "whole table",
		broken: map[string]int{"fig7": 3, "summary": 1},
		errs: []string{
			"fig7: experiments: run 4 of 17 (ipfwdr, tdvs, seed 1): ",
			"summary: experiments: run 2 of 48 (ipfwdr, tdvs, seed 2): ",
		},
		attempts: 2 * 2,
	}, {
		name:   "shared run",
		ids:    []string{"fig6", "fig8", "fig9", "fig10"},
		broken: map[string]int{"fig8": 3, "fig9": 3},
		errs: []string{
			"fig8: experiments: run 4 of 17 (ipfwdr, tdvs, seed 1): ",
			"fig9: experiments: run 4 of 17 (ipfwdr, tdvs, seed 1): ",
		},
		attempts: 2,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The hook fires from concurrent run workers.
			var attempts atomic.Int64
			remove := ObserveRuns(nil, func(_ time.Duration, failed bool) {
				if failed {
					attempts.Add(1)
				}
			})
			defer remove()

			p, err := NewPlan(c.ids)
			if err != nil {
				t.Fatal(err)
			}
			steps := slices.Clone(p.steps)
			var want []string
			for i, e := range steps {
				if j, ok := c.broken[e.ID]; ok {
					steps[i].Configs = invalid(e.Configs, j)
				} else if strings.HasPrefix(e.ID, "sweep-") {
					want = append(want, e.ID+"-power", e.ID+"-throughput")
				} else {
					want = append(want, e.ID)
				}
			}
			rs, errs := (&Plan{steps: steps}).Execute(testOpts)
			if len(errs) != len(c.errs) {
				t.Fatalf("errors = %v, want %d", errs, len(c.errs))
			}
			for i, prefix := range c.errs {
				if msg := errs[i].Error(); !strings.HasPrefix(msg, prefix) || !strings.Contains(msg, "window_cycles") {
					t.Errorf("error %d = %q, want prefix %q naming window_cycles", i, msg, prefix)
				}
			}
			if got := attempts.Load(); got != c.attempts {
				t.Errorf("failed run attempts = %d, want %d", got, c.attempts)
			}
			var got []string
			for _, r := range rs {
				got = append(got, r.ID)
			}
			if !slices.Equal(got, want) {
				t.Errorf("reports = %v, want %v", got, want)
			}
		})
	}
}

// TestTableRunCounts reads the shared serial execution of the whole table
// (serialTable): the run hook fires exactly PlannedRuns times, so each
// distinct run key is simulated once, however many steps declare it.
func TestTableRunCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	serial, err := serialTable()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := serial.runs, p.PlannedRuns(testOpts); got != want || want != 188 {
		t.Errorf("table ran %d simulations, plans %d, want 188", got, want)
	}
}

// tableRun is one whole-table execution: each report's text and chart
// SVGs in table order, and the number of simulations it ran.
type tableRun struct {
	parts []string
	runs  int
}

// executeTable executes the whole table at a parallelism, counting runs
// through the run hook, which fires from concurrent run workers.
func executeTable(par int) (tableRun, error) {
	var runs atomic.Int64
	remove := ObserveRuns(nil, func(_ time.Duration, _ bool) { runs.Add(1) })
	defer remove()
	p, err := NewPlan(nil)
	if err != nil {
		return tableRun{}, err
	}
	o := testOpts
	o.Parallelism = par
	rs, errs := p.Execute(o)
	if len(errs) > 0 {
		return tableRun{}, errors.Join(errs...)
	}
	var out tableRun
	for _, r := range rs {
		out.parts = append(out.parts, r.String())
		for _, ch := range r.Charts {
			out.parts = append(out.parts, ch.SVG)
		}
	}
	out.runs = int(runs.Load())
	return out, nil
}

// serialTable is the one execution at parallelism 1 that TestTableRunCounts
// and the serial leg of TestParallelismInvariance share: the run count does
// not depend on parallelism, and each execution of the table is ~10 s under
// the race detector.
var serialTable = sync.OnceValues(func() (tableRun, error) { return executeTable(1) })

// TestParallelismInvariance executes the whole table at parallelism 1 and
// 4: the reports and charts must be byte-identical.
func TestParallelismInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	serialRun, err := serialTable()
	if err != nil {
		t.Fatal(err)
	}
	parallelRun, err := executeTable(4)
	if err != nil {
		t.Fatal(err)
	}
	if serialRun.runs != parallelRun.runs {
		t.Errorf("%d simulations at parallelism 1, %d at 4", serialRun.runs, parallelRun.runs)
	}
	serial, parallel := serialRun.parts, parallelRun.parts
	if len(serial) != len(parallel) {
		t.Fatalf("%d report parts at parallelism 1, %d at 4", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("part %d differs between parallelism 1 and 4:\n%s\n---\n%s", i, serial[i], parallel[i])
		}
	}
}
