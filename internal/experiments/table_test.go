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

// TestExecuteSurvivesFailingStep runs the whole table with two steps whose
// configs hold a run that cannot succeed: fig7 (all of whose other runs
// fig6 already produced) and summary (one traffic seed of one cell). Each
// failing step fails whole, naming the run; every other step's reports are
// still returned and checkpointed.
func TestExecuteSurvivesFailingStep(t *testing.T) {
	ck, err := core.OpenCheckpoint(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	invalid := func(configs func(Options) ([]core.RunConfig, error), i int) func(Options) ([]core.RunConfig, error) {
		return func(o Options) ([]core.RunConfig, error) {
			cfgs, err := configs(o)
			cfgs[i].Policy = core.TDVSPolicy(1000, -1)
			return cfgs, err
		}
	}
	steps := slices.Clone(table)
	var want []string
	for i, e := range steps {
		switch {
		case e.ID == "fig7":
			steps[i].Configs = invalid(e.Configs, 3)
		case e.ID == "summary":
			steps[i].Configs = invalid(e.Configs, 1) // ipfwdr, noDVS, second seed
		case strings.HasPrefix(e.ID, "sweep-"):
			want = append(want, e.ID+"-power", e.ID+"-throughput")
		default:
			want = append(want, e.ID)
		}
	}
	rs, errs := (&Plan{steps: steps, ck: ck}).Execute(testOpts)
	if len(errs) != 2 {
		t.Fatalf("errors = %v, want one for fig7 and one for summary", errs)
	}
	for i, prefix := range []string{"fig7: experiments: run 4 of 17 (ipfwdr, tdvs, seed 1): ", "summary: experiments: run 2 of 48 (ipfwdr, tdvs, seed 2): "} {
		if msg := errs[i].Error(); !strings.HasPrefix(msg, prefix) || !strings.Contains(msg, "window_cycles") {
			t.Errorf("error %d = %q, want prefix %q naming window_cycles", i, msg, prefix)
		}
	}
	var got []string
	for _, r := range rs {
		got = append(got, r.ID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("reports = %v, want %v", got, want)
	}
	for _, e := range steps {
		if failed := e.ID == "fig7" || e.ID == "summary"; ck.Has(e.ID) == failed {
			t.Errorf("checkpoint holds %s: %v", e.ID, ck.Has(e.ID))
		}
	}
}

// TestTableRunCounts executes the whole table and checks that the run hook
// fires exactly PlannedRuns times: each distinct run key is simulated once,
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
		t.Errorf("table ran %d simulations, all plans %d, want 188", got, want)
	}
}

// TestParallelismInvariance runs the steps that once looped over their runs
// serially at parallelism 1 and 4: the reports must be byte-identical.
func TestParallelismInvariance(t *testing.T) {
	ids := []string{"ablation-hysteresis", "ablation-oracle", "ablation-combined", "idle", "summary"}
	render := func(par int) []string {
		p, err := NewPlan(ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		rs, errs := p.Execute(Options{Cycles: 200_000, Parallelism: par, Seed: 1})
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
	if len(serial) != len(ids)+1 { // summary carries one chart
		t.Fatalf("got %d report parts, want %d", len(serial), len(ids)+1)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("part %d differs between parallelism 1 and 4:\n%s\n---\n%s", i, serial[i], parallel[i])
		}
	}
}
