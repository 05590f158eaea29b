package experiments

import (
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/workload"
)

func TestPlannedRuns(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{nil, 195},
		{[]string{"all"}, 195},
		{[]string{"fig10"}, 5},
		{[]string{"fig6", "fig7"}, sweepRuns}, // named figures share the sweep too
		{[]string{"fig1", "idle", "summary"}, 0 + 1 + 48},
		{[]string{"fault_sweep"}, 16},
		{[]string{"policy_compare"}, 4},
	}
	for _, c := range cases {
		p, err := NewPlan(c.args, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.PlannedRuns(); got != c.want {
			t.Errorf("PlannedRuns(%v) = %d, want %d", c.args, got, c.want)
		}
	}
	for _, args := range [][]string{{"no-such-experiment"}, {"fig10", "bogus"}, {"fig1", "fig1"}, {"fig1", "all"}} {
		if _, err := NewPlan(args, nil); err == nil {
			t.Errorf("NewPlan(%v) accepted", args)
		}
	}

	// Resumed steps leave the total; the shared sweep stays in it while
	// some step that draws on it still runs.
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
		{[]string{"fig6", "fig8"}, sweepRuns},
		{nil, 195 - 5},
	} {
		p, err := NewPlan(c.args, ck)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.PlannedRuns(); got != c.want {
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

// TestExecuteSurvivesFailingStep runs the whole table with fig7 failing:
// every other step's reports are still returned and checkpointed, and the
// failure names its step.
func TestExecuteSurvivesFailingStep(t *testing.T) {
	ck, err := core.OpenCheckpoint(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	steps := slices.Clone(table)
	var want []string
	for i, e := range steps {
		switch {
		case e.ID == "fig7":
			steps[i].Run = func(Options, func() (*TDVSSweepData, error)) ([]Report, error) {
				return nil, errors.New("forced failure")
			}
		case strings.HasPrefix(e.ID, "sweep-"):
			want = append(want, e.ID+"-power", e.ID+"-throughput")
		default:
			want = append(want, e.ID)
		}
	}
	rs, errs := (&Plan{steps: steps, ck: ck}).Execute(testOpts)
	if len(errs) != 1 || errs[0].Error() != "fig7: forced failure" {
		t.Errorf("errors = %v, want [fig7: forced failure]", errs)
	}
	var got []string
	for _, r := range rs {
		got = append(got, r.ID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("reports = %v, want %v", got, want)
	}
	for _, e := range steps {
		if ck.Has(e.ID) != (e.ID != "fig7") {
			t.Errorf("checkpoint holds %s: %v", e.ID, ck.Has(e.ID))
		}
	}
}

// TestTableRunCounts runs every entry and checks its declared Runs against
// the runs the core run hook counts; a shared entry after the first finds
// the sweep already run. The total is what `all` plans.
func TestTableRunCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	// The hook fires from concurrent run workers.
	var runs atomic.Int64
	remove := ObserveRuns(nil, func(_ time.Duration, _ bool) { runs.Add(1) })
	defer remove()

	shared := sync.OnceValues(func() (*TDVSSweepData, error) {
		return RunTDVSSweep(workload.IPFwdr, testOpts)
	})
	sweepRan := false
	for _, e := range table {
		before := runs.Load()
		if _, err := e.Run(testOpts, shared); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		want := e.Runs
		if e.Shared && sweepRan {
			want = 0
		}
		sweepRan = sweepRan || e.Shared
		if got := int(runs.Load() - before); got != want {
			t.Errorf("%s ran %d simulations, want %d", e.ID, got, want)
		}
	}
	p, err := NewPlan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(runs.Load()); got != p.PlannedRuns() {
		t.Errorf("table ran %d simulations, all plans %d", got, p.PlannedRuns())
	}
}
