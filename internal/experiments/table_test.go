package experiments

import (
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
		p, err := NewPlan(c.args, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.PlannedRuns(testOpts); got != c.want {
			t.Errorf("PlannedRuns(%v) = %d, want %d", c.args, got, c.want)
		}
	}
	for _, args := range [][]string{{"no-such-experiment"}, {"fig10", "bogus"}, {"fig1", "fig1"}, {"fig1", "all"}} {
		if _, err := NewPlan(args, nil); err == nil {
			t.Errorf("NewPlan(%v) accepted", args)
		}
	}

	// Resumed steps leave the total; the sweep stays in it while some step
	// that draws on it still runs.
	ck, err := core.OpenCheckpoint(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig6", "fig7", "fig10"} {
		if err := ck.Save(id, []Report{{ID: id}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"fig6", "fig7", "fig10"}, 0},
		{[]string{"fig6", "fig8"}, sweep},
		{nil, 188 - 4}, // fig10's noDVS baseline is the sweep's
	} {
		p, err := NewPlan(c.args, ck)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.PlannedRuns(testOpts); got != c.want {
			t.Errorf("resumed PlannedRuns(%v) = %d, want %d", c.args, got, c.want)
		}
	}
}

// TestRunCheckpointedResume: the second run against the same checkpoint
// replays the stored reports without simulating anything.
func TestRunCheckpointedResume(t *testing.T) {
	ck, err := core.OpenCheckpoint(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	// The hook fires from concurrent run workers.
	var runs atomic.Int64
	remove := ObserveRuns(nil, func(_ time.Duration, _ bool) { runs.Add(1) })
	defer remove()

	o := testOpts
	o.Cycles = 300_000
	execute := func(args ...string) ([]Report, []string) {
		t.Helper()
		p, err := NewPlan(args, ck)
		if err != nil {
			t.Fatal(err)
		}
		rs, errs := p.Execute(o)
		if len(errs) > 0 {
			t.Fatal(errs)
		}
		return rs, p.Resumed()
	}
	first, resumed := execute("idle")
	if len(resumed) > 0 {
		t.Error("first execution claims to have resumed")
	}
	if runs.Load() == 0 {
		t.Error("first execution simulated nothing")
	}
	ran := runs.Load()

	second, resumed := execute("idle")
	if !slices.Equal(resumed, []string{"idle"}) {
		t.Errorf("second execution resumed %v, want [idle]", resumed)
	}
	if runs.Load() != ran {
		t.Errorf("resumed execution simulated %d extra runs", runs.Load()-ran)
	}
	if len(first) != len(second) || len(first) == 0 || first[0].ID != second[0].ID {
		t.Errorf("resumed reports differ: %d vs %d", len(first), len(second))
	}
	if first[0].Body != second[0].Body {
		t.Error("resumed report body differs from the computed one")
	}

	// Entries written when chart names were whole file stems resume with
	// the names mapped to report-ID suffixes.
	if err := ck.Save("fig6", []Report{{ID: "fig6", Charts: []NamedChart{{Name: "fig6-threshold-800"}}}}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save("sweep-md4", []Report{
		{ID: "sweep-md4-power", Charts: []NamedChart{{Name: "fig8"}}},
		{ID: "sweep-md4-throughput", Charts: []NamedChart{{Name: "fig9"}}},
	}); err != nil {
		t.Fatal(err)
	}
	rs, _ := execute("fig6", "sweep-md4")
	var names []string
	for _, r := range rs {
		names = append(names, r.ID+r.Charts[0].Name)
	}
	if got, want := strings.Join(names, " "), "fig6-threshold-800 sweep-md4-power sweep-md4-throughput"; got != want {
		t.Errorf("legacy chart files = %q, want %q", got, want)
	}
	if runs.Load() != ran {
		t.Errorf("legacy entries simulated %d runs", runs.Load()-ran)
	}
}

// TestExecuteSavesStepOnItsLastRun: at parallelism 1 fig10's five runs
// come first, and fig10 is in the checkpoint before idle's run begins, not
// only once the whole plan has finished.
func TestExecuteSavesStepOnItsLastRun(t *testing.T) {
	ck, err := core.OpenCheckpoint(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	// At parallelism 1 the runs are serial, so the hook needs no lock.
	var saved []bool
	remove := ObserveRuns(nil, func(_ time.Duration, _ bool) { saved = append(saved, ck.Has("fig10")) })
	defer remove()
	p, err := NewPlan([]string{"fig10", "idle"}, ck)
	if err != nil {
		t.Fatal(err)
	}
	o := testOpts
	o.Parallelism = 1
	if _, errs := p.Execute(o); len(errs) > 0 {
		t.Fatal(errs)
	}
	// The hook fires at the end of each run, before the batch hands the run
	// to its steps.
	if want := []bool{false, false, false, false, false, true}; !slices.Equal(saved, want) {
		t.Errorf("fig10 in checkpoint at each run's end = %v, want %v", saved, want)
	}
}

// TestExecuteSurvivesFailingStep runs plans in which some steps' configs
// hold a run that cannot succeed. Each failing step fails whole, naming the
// run; every other step's reports are still returned and checkpointed, and
// a failing run two steps declare is attempted only once, plus its retry.
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
			ck, err := core.OpenCheckpoint(filepath.Join(t.TempDir(), "ck"))
			if err != nil {
				t.Fatal(err)
			}
			// The hook fires from concurrent run workers.
			var attempts atomic.Int64
			remove := ObserveRuns(nil, func(_ time.Duration, failed bool) {
				if failed {
					attempts.Add(1)
				}
			})
			defer remove()

			p, err := NewPlan(c.ids, nil)
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
			rs, errs := (&Plan{steps: steps, ck: ck}).Execute(testOpts)
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
			for _, e := range steps {
				if _, failed := c.broken[e.ID]; ck.Has(e.ID) == failed {
					t.Errorf("checkpoint holds %s: %v", e.ID, ck.Has(e.ID))
				}
			}
		})
	}
}

// TestTableRunCounts executes the whole table once: the run hook fires
// exactly PlannedRuns times, so each distinct run key is simulated once,
// however many steps declare it.
func TestTableRunCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	// The hook fires from concurrent run workers.
	var runs atomic.Int64
	remove := ObserveRuns(nil, func(_ time.Duration, _ bool) { runs.Add(1) })
	defer remove()

	p, err := NewPlan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, errs := p.Execute(testOpts); len(errs) > 0 {
		t.Fatal(errs)
	}
	if got, want := int(runs.Load()), p.PlannedRuns(testOpts); got != want || want != 188 {
		t.Errorf("table ran %d simulations, plans %d, want 188", got, want)
	}
}

// TestParallelismInvariance executes the whole table at parallelism 1 and
// 4: the reports and charts must be byte-identical.
func TestParallelismInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	p, err := NewPlan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	render := func(par int) []string {
		o := testOpts
		o.Parallelism = par
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
	serial, parallel := render(1), render(4)
	if len(serial) != len(parallel) {
		t.Fatalf("%d report parts at parallelism 1, %d at 4", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("part %d differs between parallelism 1 and 4:\n%s\n---\n%s", i, serial[i], parallel[i])
		}
	}
}
