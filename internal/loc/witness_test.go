package loc

import (
	"math"
	"strings"
	"testing"

	"nepdvs/internal/loc/rt"
	"nepdvs/internal/obs"
	"nepdvs/internal/span"
	"nepdvs/internal/trace"
)

// bindingByRef finds the witness binding for a reference's source form.
func bindingByRef(t *testing.T, w []rt.Binding, ref string) rt.Binding {
	t.Helper()
	for _, b := range w {
		if b.Ref == ref {
			return b
		}
	}
	t.Fatalf("witness lacks binding for %q: %+v", ref, w)
	return rt.Binding{}
}

func TestWitnessCapture(t *testing.T) {
	evs := mkTrace(30, func(k int) uint64 {
		if k == 10 {
			return 70 // the only violation of <= 50
		}
		return 30
	})
	res := runOne(t, "cycle(deq[i]) - cycle(enq[i]) <= 50", evs)
	c := res.Check
	if c.Total != 1 || len(c.Violations) != 1 {
		t.Fatalf("violations = %d retained = %d", c.Total, len(c.Violations))
	}
	v := c.Violations[0]
	if v.Instance != 10 || v.LHS != 70 || v.RHS != 50 {
		t.Fatalf("violation = %+v", v)
	}
	if len(v.Witness) != 2 {
		t.Fatalf("witness has %d bindings, want 2: %+v", len(v.Witness), v.Witness)
	}
	// mkTrace: enq at cycle 100, deq at cycle 170 for k = 10.
	deq := bindingByRef(t, v.Witness, "cycle(deq[i])")
	if deq.Event != "deq" || deq.Ann != "cycle" || deq.Index != 10 ||
		deq.Value != 170 || deq.Cycle != 170 || deq.Time != 170.0/600 {
		t.Fatalf("deq binding = %+v", deq)
	}
	enq := bindingByRef(t, v.Witness, "cycle(enq[i])")
	if enq.Event != "enq" || enq.Ann != "cycle" || enq.Index != 10 ||
		enq.Value != 100 || enq.Cycle != 100 || enq.Time != 100.0/600 {
		t.Fatalf("enq binding = %+v", enq)
	}
	// The violation instant is the latest bound event: the deq.
	if v.Time != 170.0/600 {
		t.Fatalf("violation time = %g, want %g", v.Time, 170.0/600)
	}
	if !strings.Contains(deq.String(), "cycle(deq[i]) = 170 (deq[10]") {
		t.Errorf("binding render: %s", deq)
	}
}

func TestWitnessAbsoluteRef(t *testing.T) {
	evs := mkTrace(20, func(int) uint64 { return 30 })
	// forward[0] has cycle 30; forward[i] - forward[0] > 0 fails at i = 0.
	res := runOne(t, "cycle(forward[i]) - cycle(forward[0]) > 0", evs)
	c := res.Check
	if c.Total == 0 {
		t.Fatal("expected a violation at instance 0")
	}
	abs := bindingByRef(t, c.Violations[0].Witness, "cycle(forward[0])")
	if abs.Index != 0 || abs.Value != 30 || abs.Cycle != 30 || abs.Time != 30.0/600 {
		t.Fatalf("absolute binding = %+v", abs)
	}
}

func TestWorstTrackedPastRetentionCap(t *testing.T) {
	// Deviation grows with k; with MaxViolations 2, the worst violation is
	// far past the retention cap and must still carry a full witness.
	evs := mkTrace(50, func(k int) uint64 { return uint64(60 + k) })
	c, err := Compile(MustParse("cycle(deq[i]) - cycle(enq[i]) <= 50"), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&trace.SliceSource{Events: evs}, RunnerOptions{MaxViolations: 2}, c)
	if err != nil {
		t.Fatal(err)
	}
	ck := res[0].Check
	if ck.Total != 50 || len(ck.Violations) != 2 {
		t.Fatalf("total = %d retained = %d", ck.Total, len(ck.Violations))
	}
	if ck.Worst == nil || ck.Worst.Instance != 49 {
		t.Fatalf("worst = %+v, want instance 49", ck.Worst)
	}
	if ck.Worst.LHS != 60+49 {
		t.Fatalf("worst lhs = %g", ck.Worst.LHS)
	}
	if len(ck.Worst.Witness) != 2 {
		t.Fatalf("worst witness = %+v", ck.Worst.Witness)
	}
}

func TestWorstTieKeepsEarliest(t *testing.T) {
	evs := mkTrace(20, func(int) uint64 { return 70 })
	res := runOne(t, "cycle(deq[i]) - cycle(enq[i]) <= 50", evs)
	if w := res.Check.Worst; w == nil || w.Instance != 0 {
		t.Fatalf("worst = %+v, want instance 0", res.Check.Worst)
	}
}

func TestDeviationRelationAware(t *testing.T) {
	// For >= the worst violation is the one furthest BELOW the bound, even
	// though its lhs is the smallest.
	evs := mkTrace(20, func(k int) uint64 { return uint64(30 - k) })
	res := runOne(t, "cycle(deq[i]) - cycle(enq[i]) >= 25", evs)
	c := res.Check
	if c.Total == 0 {
		t.Fatal("expected violations")
	}
	if c.Worst.Instance != 19 || c.Worst.LHS != 30-19 {
		t.Fatalf("worst = %+v, want instance 19", c.Worst)
	}
}

func TestDensityDoubling(t *testing.T) {
	var d rt.Density
	for k := 0; k < rt.DensityBins; k++ {
		d.Add(float64(k) + 0.5)
	}
	if d.WidthUS != 1 || len(d.Counts) != rt.DensityBins || densityTotal(&d) != rt.DensityBins {
		t.Fatalf("pre-fold: width=%g bins=%d total=%d", d.WidthUS, len(d.Counts), densityTotal(&d))
	}
	// One violation past the last slot folds adjacent bins and doubles width.
	d.Add(float64(rt.DensityBins))
	if d.WidthUS != 2 || densityTotal(&d) != rt.DensityBins+1 {
		t.Fatalf("post-fold: width=%g total=%d", d.WidthUS, densityTotal(&d))
	}
	if len(d.Counts) > rt.DensityBins {
		t.Fatalf("bins grew past the cap: %d", len(d.Counts))
	}
	// Each folded bin covers two old 1 µs bins with one violation apiece.
	if d.Counts[0] != 2 || d.Counts[10] != 2 {
		t.Fatalf("folded counts = %v", d.Counts[:12])
	}
}

func TestDensityAdversarialTimes(t *testing.T) {
	var d rt.Density
	for _, tm := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5, 1e308} {
		d.Add(tm)
	}
	if densityTotal(&d) != 5 {
		t.Fatalf("total = %d, want 5", densityTotal(&d))
	}
	if len(d.Counts) > rt.DensityBins {
		t.Fatalf("adversarial times grew bins unboundedly: %d", len(d.Counts))
	}
	// 1e308 forces many doublings but stays finite and within the cap.
	if math.IsInf(d.WidthUS, 0) || d.WidthUS <= 0 {
		t.Fatalf("width = %g", d.WidthUS)
	}
}

func TestDensityAttachedToCheck(t *testing.T) {
	evs := mkTrace(100, func(k int) uint64 {
		if k%10 == 0 {
			return 70
		}
		return 30
	})
	res := runOne(t, "cycle(deq[i]) - cycle(enq[i]) <= 50", evs)
	c := res.Check
	if c.Density == nil || densityTotal(c.Density) != c.Total {
		t.Fatalf("density = %+v, want total %d", c.Density, c.Total)
	}
}

func TestWindowPeak(t *testing.T) {
	evs := mkTrace(50, func(int) uint64 { return 30 })
	res := runOne(t, "cycle(forward[i+10]) - cycle(forward[i]) >= 0", evs)
	// Evaluating instance i needs forward instances i..i+10 retained: the
	// high-water mark is the 11-instance window.
	if res.WindowPeak != 11 {
		t.Fatalf("window peak = %d, want 11", res.WindowPeak)
	}
}

func TestPublishMetrics(t *testing.T) {
	evs := mkTrace(100, func(k int) uint64 {
		if k%10 == 0 {
			return 70
		}
		return 30
	})
	fs, err := ParseFile(`
lat: cycle(deq[i]) - cycle(enq[i]) <= 50;
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
	r, err := NewRunner(RunnerOptions{}, cs...)
	if err != nil {
		t.Fatal(err)
	}
	for k := range evs {
		if err := r.Emit(&evs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Results(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.PublishMetrics(reg)
	s := reg.Snapshot()
	want := map[string]uint64{
		"loc_lat_instances_total":     100,
		"loc_lat_violations_total":    10,
		"loc_lat_indeterminate_total": 0,
		"loc_lat_skipped_total":       0,
		"loc_gap_instances_total":     90,
		"loc_gap_skipped_total":       0,
	}
	for name, v := range want {
		if got := s.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if g := s.Gauges["loc_gap_window_peak"]; g != 11 {
		t.Errorf("loc_gap_window_peak = %g, want 11", g)
	}
	if g := s.Gauges["loc_lat_window_peak"]; g < 1 {
		t.Errorf("loc_lat_window_peak = %g", g)
	}
}

func TestSetSpansRecordsViolations(t *testing.T) {
	evs := mkTrace(30, func(k int) uint64 {
		if k == 10 {
			return 70
		}
		return 30
	})
	c, err := Compile(MustParse("cycle(deq[i]) - cycle(enq[i]) <= 50"), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(RunnerOptions{}, c)
	if err != nil {
		t.Fatal(err)
	}
	rec := span.NewRecorder()
	r.SetSpans(rec)
	for k := range evs {
		if err := r.Emit(&evs[k]); err != nil {
			t.Fatal(err)
		}
	}
	var spans, instants int
	for _, ev := range rec.Events() {
		if ev.Track != "assert" || ev.Cat != "assert" || ev.Name != "f1" {
			t.Fatalf("unexpected timeline event %+v", ev)
		}
		switch ev.Kind {
		case span.KindSpan:
			spans++
			if ev.End <= ev.Start {
				t.Fatalf("empty assertion-window span %+v", ev)
			}
		case span.KindInstant:
			instants++
			if ev.Args["i"] != 10 || ev.Args["lhs"] != 70 || ev.Args["rhs"] != 50 {
				t.Fatalf("instant args = %+v", ev.Args)
			}
		}
	}
	if spans != 1 || instants != 1 {
		t.Fatalf("spans = %d instants = %d, want 1 and 1", spans, instants)
	}
}

// Satellite 1: the truncation remainder count is exact for every combination
// of display cap (10), retention cap (MaxViolations) and total.
func TestCheckStringTruncation(t *testing.T) {
	mk := func(retained int, total int64) *CheckResult {
		c := &CheckResult{Instances: total, Total: total}
		for k := 0; k < retained; k++ {
			c.Violations = append(c.Violations, Violation{Instance: int64(k), LHS: 1, RHS: 0})
		}
		return c
	}
	cases := []struct {
		name     string
		retained int
		total    int64
		shown    int
		more     int64 // 0 means no remainder line at all
	}{
		{"no violations", 0, 0, 0, 0},
		{"under display cap", 3, 3, 3, 0},
		{"exactly display cap", 10, 10, 10, 0},
		{"display truncation", 12, 12, 10, 2},
		{"retention cap only", 5, 8, 5, 3},
		{"both caps", 10, 15, 10, 5},
		{"deep retention cut", 2, 100, 2, 98},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mk(tc.retained, tc.total).String()
			if got := strings.Count(s, "  violation "); got != tc.shown {
				t.Errorf("shown = %d, want %d:\n%s", got, tc.shown, s)
			}
			if tc.more == 0 {
				if strings.Contains(s, "more violations") {
					t.Errorf("unexpected remainder line:\n%s", s)
				}
				return
			}
			want := "... " + itoa(tc.more) + " more violations"
			if !strings.Contains(s, want) {
				t.Errorf("missing %q:\n%s", want, s)
			}
		})
	}
}

// The same truncation semantics hold end-to-end through Run with a
// MaxViolations retention cap.
func TestCheckStringTruncationViaRun(t *testing.T) {
	evs := mkTrace(15, func(int) uint64 { return 70 })
	c, err := Compile(MustParse("cycle(deq[i]) - cycle(enq[i]) <= 50"), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&trace.SliceSource{Events: evs}, RunnerOptions{MaxViolations: 5}, c)
	if err != nil {
		t.Fatal(err)
	}
	s := res[0].Check.String()
	if got := strings.Count(s, "  violation "); got != 5 {
		t.Errorf("shown = %d, want 5:\n%s", got, s)
	}
	if !strings.Contains(s, "... 10 more violations") {
		t.Errorf("missing remainder:\n%s", s)
	}
}

// densityTotal counts the violations a density recorded.
func densityTotal(d *rt.Density) int64 {
	var n int64
	for _, c := range d.Counts {
		n += c
	}
	return n
}
