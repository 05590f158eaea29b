package loc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nepdvs/internal/trace"
)

func TestParseCalls(t *testing.T) {
	cases := []string{
		"abs(cycle(a[i]) - cycle(b[i])) <= 5",
		"min(cycle(a[i]), cycle(b[i])) >= 0",
		"max(cycle(a[i]), 100) - min(cycle(a[i]), 100) hist [0, 10, 1]",
		"abs(min(cycle(a[i]), -3)) == 3",
	}
	for _, src := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		f2, err := Parse(f.String())
		if err != nil || !equalFormula(f, f2) {
			t.Errorf("round trip failed for %q -> %q (%v)", src, f, err)
		}
	}
}

func TestParseCallErrors(t *testing.T) {
	cases := []string{
		"abs() <= 1",
		"abs(cycle(a[i]), 2) <= 1",
		"min(cycle(a[i])) <= 1",
		"max(1, 2, 3) <= 1",
		"abs(cycle(a[i]) <= 1", // unbalanced
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestBuiltinShadowsAnnotation(t *testing.T) {
	// "abs" as an annotation name is not parseable as an AnnRef; the
	// builtin wins and demands its arity.
	if _, err := Parse("abs(forward[i]) <= 1"); err == nil {
		t.Fatal("abs(forward[i]) should fail: event reference is not a valid expression argument... " +
			"actually forward[i] is not an expression, so a parse error is required")
	}
}

func TestCallEvaluation(t *testing.T) {
	evs := []trace.Event{
		{Name: "a", Cycle: 10},
		{Name: "b", Cycle: 14},
		{Name: "a", Cycle: 20},
		{Name: "b", Cycle: 17},
	}
	// |cycle(a)-cycle(b)| is 4 then 3: both <= 4.
	res := runOne(t, "abs(cycle(a[i]) - cycle(b[i])) <= 4", evs)
	if !res.Check.Passed() || res.Check.Instances != 2 {
		t.Fatalf("abs check = %+v", res.Check)
	}
	res = runOne(t, "min(cycle(a[i]), cycle(b[i])) == 10 + 7 * i", evs)
	if !res.Check.Passed() {
		t.Fatalf("min check = %+v", res.Check)
	}
	res = runOne(t, "max(cycle(a[i]), cycle(b[i])) == 14 + 6 * i", evs)
	if !res.Check.Passed() {
		t.Fatalf("max check = %+v", res.Check)
	}
}

// Property: VM min/max/abs agree with math.* on random values.
func TestCallVMSemanticsProperty(t *testing.T) {
	cAbs, err := Compile(MustParse("abs(cycle(e[i])) >= 0"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cMin, err := Compile(MustParse("min(cycle(e[i]), energy(e[i])) >= 0"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cMax, err := Compile(MustParse("max(cycle(e[i]), energy(e[i])) >= 0"), nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := rng.NormFloat64()*100, rng.NormFloat64()*100
		va, _ := cAbs.LHS.Eval([]float64{x}, 0, nil)
		if va != math.Abs(x) {
			return false
		}
		vmin, _ := cMin.LHS.Eval([]float64{x, y}, 0, nil)
		if vmin != math.Min(x, y) {
			return false
		}
		vmax, _ := cMax.LHS.Eval([]float64{x, y}, 0, nil)
		return vmax == math.Max(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCallInDistribution(t *testing.T) {
	var evs []trace.Event
	for k := 0; k < 20; k++ {
		evs = append(evs, trace.Event{Name: "e", Cycle: uint64(k), Energy: float64(10 - k)})
	}
	// |energy| spans 0..10 (and 10-k negative beyond k=10).
	res := runOne(t, "abs(energy(e[i])) hist [0, 10, 1]", evs)
	if res.Dist.Instances != 20 {
		t.Fatalf("instances = %d", res.Dist.Instances)
	}
	// 10, 9, …, 1, 0, 1, …, 9: without abs the mean would be 0.5.
	if got := res.Dist.Hist.Mean(); got != 5 {
		t.Fatalf("mean = %v, want 5: abs let a negative value through", got)
	}
}

func TestCallDisasm(t *testing.T) {
	c, err := Compile(MustParse("max(abs(cycle(e[i])), 5) <= 100"), nil)
	if err != nil {
		t.Fatal(err)
	}
	dis := disasm(c.LHS)
	for _, want := range []string{"abs", "max", "const 5"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disasm missing %q:\n%s", want, dis)
		}
	}
}

// disasm renders a compiled program one instruction per line.
func disasm(p *Program) string {
	var b strings.Builder
	for _, in := range p.Code {
		if in.Op == OpConst {
			fmt.Fprintf(&b, "const %g\n", in.Val)
		} else {
			fmt.Fprintf(&b, "%s\n", in.Op)
		}
	}
	return b.String()
}
