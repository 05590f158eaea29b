package loc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nepdvs/internal/trace"
)

// reportResults runs the standard mixed formula set (a failing check, a
// passing check and a distribution) over mkTrace and returns the results.
func reportResults(t *testing.T) []Result {
	t.Helper()
	evs := mkTrace(100, func(k int) uint64 {
		if k%10 == 0 {
			return 70
		}
		return 30
	})
	fs, err := ParseFile(`
lat: cycle(deq[i]) - cycle(enq[i]) <= 50;
mono: total_pkt(forward[i]) == i + 1;
gap: cycle(forward[i+10]) - cycle(forward[i]) hist [0, 200, 10];
`)
	if err != nil {
		t.Fatal(err)
	}
	var cs []*Compiled
	for _, f := range fs {
		c, err := Compile(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	res, err := Run(&trace.SliceSource{Events: evs}, RunnerOptions{}, cs...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildReportVerdicts(t *testing.T) {
	rep := BuildReport(reportResults(t))
	if rep.Schema != ReportSchema || len(rep.Formulas) != 3 {
		t.Fatalf("report = %+v", rep)
	}
	lat, mono, gap := rep.Formulas[0], rep.Formulas[1], rep.Formulas[2]
	if lat.Name != "lat" || lat.Kind != "check" || lat.Verdict != "fail" {
		t.Fatalf("lat = %+v", lat)
	}
	if lat.Violations != 10 || lat.Retained != 10 || lat.First == nil || lat.Worst == nil || lat.Density == nil {
		t.Fatalf("lat detail = %+v", lat)
	}
	if len(lat.Witnesses) != 10 || len(lat.Witnesses[0].Witness) != 2 {
		t.Fatalf("lat witnesses = %d", len(lat.Witnesses))
	}
	if mono.Verdict != "pass" || mono.First != nil || mono.Worst != nil {
		t.Fatalf("mono = %+v", mono)
	}
	if gap.Kind != "dist" || gap.Verdict != "dist" || gap.Instances != 90 {
		t.Fatalf("gap = %+v", gap)
	}
}

func TestReportVacuousPass(t *testing.T) {
	// A check that never evaluated an instance "passes", but asserted
	// nothing; the report must say so.
	res := runOne(t, "cycle(deq[i+1]) - cycle(deq[i]) >= 0", nil)
	rep := BuildReport([]Result{res})
	fr := rep.Formulas[0]
	if fr.Verdict != "pass" || !fr.Vacuous {
		t.Fatalf("verdict=%q vacuous=%v, want a vacuous pass", fr.Verdict, fr.Vacuous)
	}
	// A pass with real instances is not vacuous.
	evs := mkTrace(10, func(int) uint64 { return 30 })
	res = runOne(t, "cycle(deq[i+1]) - cycle(deq[i]) >= 0", evs)
	if fr := BuildReport([]Result{res}).Formulas[0]; fr.Verdict != "pass" || fr.Vacuous {
		t.Fatalf("verdict=%q vacuous=%v, want a non-vacuous pass", fr.Verdict, fr.Vacuous)
	}
}

func TestReportIndeterminateVerdict(t *testing.T) {
	evs := []trace.Event{
		{Name: "forward", Cycle: 1, Time: 5},
		{Name: "forward", Cycle: 2, Time: 5},
	}
	res := runOne(t, "(time(forward[i+1]) - time(forward[i])) / (time(forward[i+1]) - time(forward[i])) == 1", evs)
	rep := BuildReport([]Result{res})
	if rep.Formulas[0].Verdict != "indeterminate" {
		t.Fatalf("verdict = %q", rep.Formulas[0].Verdict)
	}
}

// The report must be byte-identical when rebuilt from results that have been
// round-tripped through JSON — the run cache stores results that way.
func TestReportJSONDeterministicAcrossRoundTrip(t *testing.T) {
	res := reportResults(t)
	direct, err := BuildReport(res).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) == 0 || direct[len(direct)-1] != '\n' {
		t.Fatal("report JSON must end in a newline")
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var rt []Result
	if err := json.Unmarshal(b, &rt); err != nil {
		t.Fatal(err)
	}
	viaService, err := BuildReport(rt).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, viaService) {
		t.Fatalf("round-tripped report differs:\n--- direct ---\n%s\n--- round-tripped ---\n%s", direct, viaService)
	}
	// And rebuilding from the same results is trivially stable.
	again, err := BuildReport(res).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, again) {
		t.Fatal("rebuilding the report changed its bytes")
	}
}

func TestEmptyReportJSON(t *testing.T) {
	b, err := BuildReport(nil).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"formulas": []`) {
		t.Fatalf("empty report must serialize formulas as []:\n%s", b)
	}
}
