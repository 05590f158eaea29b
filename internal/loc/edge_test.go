package loc

import (
	"strings"
	"testing"

	"nepdvs/internal/trace"
)

// TestAbsoluteIndexNeverArrives: a formula pinned to an instance the trace
// never produces evaluates zero instances (LOC semantics over a finite
// trace prefix) without error.
func TestAbsoluteIndexNeverArrives(t *testing.T) {
	evs := mkTrace(3, func(int) uint64 { return 10 })
	res := runOne(t, "cycle(forward[i]) - cycle(forward[50]) <= 0", evs)
	if res.Check.Instances != 0 {
		t.Fatalf("instances = %d, want 0", res.Check.Instances)
	}
	if !res.Check.Passed() {
		t.Fatal("vacuously true formula reported failure")
	}
}

// TestEventNeverFires: referencing an event absent from the trace yields
// zero instances.
func TestEventNeverFires(t *testing.T) {
	evs := mkTrace(10, func(int) uint64 { return 10 })
	res := runOne(t, "cycle(nonexistent[i]) <= 5", evs)
	if res.Check.Instances != 0 || !res.Check.Passed() {
		t.Fatalf("check = %+v", res.Check)
	}
}

// TestLargeOffsetWindow: a 100-instance offset on a short trace evaluates
// only the instances that fit.
func TestLargeOffsetWindow(t *testing.T) {
	evs := mkTrace(150, func(int) uint64 { return 10 })
	res := runOne(t, "cycle(forward[i+100]) - cycle(forward[i]) >= 0", evs)
	if res.Check.Instances != 50 {
		t.Fatalf("instances = %d, want 50", res.Check.Instances)
	}
}

// TestMixedOffsetsSameEvent exercises simultaneous positive, zero and
// negative offsets on one event (window spans both directions).
func TestMixedOffsetsSameEvent(t *testing.T) {
	evs := mkTrace(60, func(int) uint64 { return 10 })
	res := runOne(t, "cycle(forward[i+5]) - 2 * cycle(forward[i]) + cycle(forward[i-5]) == 100 - cycle(forward[i]) - cycle(forward[i]) + cycle(forward[i+5]) + cycle(forward[i-5]) - 100", evs)
	// LHS == RHS algebraically for all i; instances with i-5 < 0 skipped,
	// i+5 beyond trace unevaluated: 60 - 5 - 5 = 50 instances.
	if res.Check.Instances != 50 || res.Check.Skipped != 5 {
		t.Fatalf("instances=%d skipped=%d, want 50/5", res.Check.Instances, res.Check.Skipped)
	}
	if !res.Check.Passed() {
		t.Fatalf("algebraic identity violated: %+v", res.Check.Violations)
	}
}

// TestVFChangeAnnotations: distribution over the mhz extra annotation of
// DVS transition events — the trace-side view of ladder residency.
func TestVFChangeAnnotations(t *testing.T) {
	var evs []trace.Event
	for k, mhz := range []float64{550, 500, 450, 400, 450, 500} {
		evs = append(evs, trace.Event{Name: "m0_vfchange", Cycle: uint64(k * 1000),
			Extra: map[string]float64{"mhz": mhz, "volts": 1.1 + (mhz-400)/200*0.2}})
	}
	res := runOne(t, "mhz(m0_vfchange[i]) hist [375, 625, 50]", evs)
	if res.Dist.Instances != 6 {
		t.Fatalf("instances = %d", res.Dist.Instances)
	}
	fr := res.Dist.Hist.Fractions()
	// Bins (375,425], (425,475], (475,525], (525,575], (575,625]:
	// counts 1, 2, 2, 1, 0.
	want := []float64{0, 1.0 / 6, 2.0 / 6, 2.0 / 6, 1.0 / 6, 0, 0}
	for k := range want {
		if diff := fr[k] - want[k]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("fractions = %v, want %v", fr, want)
		}
	}
}

// TestIndexVarOnlyRHS: the index variable may appear on either side.
func TestIndexVarOnlyRHS(t *testing.T) {
	evs := mkTrace(20, func(int) uint64 { return 10 })
	res := runOne(t, "i <= total_pkt(forward[i])", evs)
	if !res.Check.Passed() || res.Check.Instances != 20 {
		t.Fatalf("check = %+v", res.Check)
	}
}

// TestInfinityBinning: +Inf values land in the overflow bin of analyzers
// instead of corrupting counts.
func TestInfinityBinning(t *testing.T) {
	evs := []trace.Event{
		{Name: "forward", Cycle: 1, Time: 1, Energy: 1},
		{Name: "forward", Cycle: 2, Time: 1, Energy: 2}, // dt = 0, dE > 0 -> +Inf
		{Name: "forward", Cycle: 3, Time: 2, Energy: 3},
	}
	res := runOne(t, "(energy(forward[i+1]) - energy(forward[i])) / (time(forward[i+1]) - time(forward[i])) hist [0, 10, 1]", evs)
	h := res.Dist.Hist
	// Two instances, +Inf and 1: half the mass sits in the overflow bin.
	if f := h.Fractions(); f[len(f)-1] != 0.5 {
		t.Fatalf("overflow bin fraction = %v, want 0.5 (+Inf)", f[len(f)-1])
	}
	if h.NaNs() != 0 {
		t.Fatalf("NaNs = %d", h.NaNs())
	}
}

// TestRunnerViaSinkInterface drives the runner through the trace.Sink
// interface the simulator uses.
func TestRunnerViaSinkInterface(t *testing.T) {
	c, err := Compile(MustParse("cycle(forward[i+1]) - cycle(forward[i]) > 0"), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(RunnerOptions{}, c)
	if err != nil {
		t.Fatal(err)
	}
	var sink trace.Sink = r
	for k := 0; k < 10; k++ {
		ev := trace.Event{Name: "forward", Cycle: uint64(10 * k)}
		if err := sink.Emit(&ev); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Check.Passed() || res[0].Check.Instances != 9 {
		t.Fatalf("check = %+v", res[0].Check)
	}
}

// TestErrorTypeCarriesPosition: front-end errors expose their source
// position for tooling.
func TestErrorTypeCarriesPosition(t *testing.T) {
	_, err := Parse("cycle(a[i]) <=\n  @")
	if err == nil {
		t.Fatal("expected error")
	}
	locErr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *loc.Error", err)
	}
	if locErr.Pos.Line != 2 {
		t.Errorf("error line = %d, want 2", locErr.Pos.Line)
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("rendered error lacks position: %q", err)
	}
}

// TestWindowSpanReporting: analysis exposes the inferred windows.
func TestWindowSpanReporting(t *testing.T) {
	a, err := Analyze(MustParse("cycle(e[i+100]) - cycle(e[i-3]) <= 5"), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Windows["e"]
	if w.Span() != 104 {
		t.Fatalf("span = %d, want 104", w.Span())
	}
	// Absolute-only event window has zero relative span.
	a, err = Analyze(MustParse("cycle(e[7]) <= 5"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Windows["e"].Span() != 0 {
		t.Fatalf("abs-only span = %d", a.Windows["e"].Span())
	}
}
