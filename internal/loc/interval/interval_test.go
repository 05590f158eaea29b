package interval

import (
	"math"
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	nn := Range(0, math.Inf(1))
	unit := Range(0, 1)
	cases := []struct {
		name string
		got  Interval
		lo   float64
		hi   float64
		nan  bool
	}{
		{"add", Add(Range(1, 2), Range(10, 20)), 11, 22, false},
		{"sub", Sub(Range(1, 2), Range(10, 20)), -19, -8, false},
		{"sub-self-range", Sub(unit, unit), -1, 1, false},
		{"mul", Mul(Range(-2, 3), Range(4, 5)), -10, 15, false},
		{"mul-neg", Mul(Range(-2, -1), Range(-3, 4)), -8, 6, false},
		{"div", Div(Range(1, 4), Range(2, 2)), 0.5, 2, false},
		{"div-zero-denom", Div(Range(1, 4), Range(-1, 1)), math.Inf(-1), math.Inf(1), false},
		{"div-zero-zero", Div(Range(0, 4), Range(-1, 1)), math.Inf(-1), math.Inf(1), true},
		{"inf-minus-inf", Sub(nn, nn), math.Inf(-1), math.Inf(1), true},
		{"inf-plus-fin", Add(nn, Range(5, 5)), 5, math.Inf(1), false},
		{"mul-zero-inf", Mul(unit, nn), math.Inf(-1), math.Inf(1), true},
		{"neg", Range(2, 5).Neg(), -5, -2, false},
		{"abs-straddle", Range(-3, 2).Abs(), 0, 3, false},
		{"abs-neg", Range(-3, -2).Abs(), 2, 3, false},
		{"min", Min(Range(0, 5), Range(3, 9)), 0, 5, false},
		{"max", Max(Range(0, 5), Range(3, 9)), 3, 9, false},
		{"nan-point", Point(math.NaN()), math.Inf(-1), math.Inf(1), true},
	}
	for _, c := range cases {
		if c.got.Lo != c.lo || c.got.Hi != c.hi || c.got.NaN != c.nan {
			t.Errorf("%s: got %v, want [%g, %g] nan=%v", c.name, c.got, c.lo, c.hi, c.nan)
		}
	}
}

func TestPredicates(t *testing.T) {
	if !Point(3).IsPoint() || Range(1, 2).IsPoint() {
		t.Error("IsPoint misclassifies")
	}
	if !Range(-1, 1).Contains(0) || Range(-1, 1).Contains(2) {
		t.Error("Contains misclassifies")
	}
	if Full().NaN || !Unknown().NaN {
		t.Error("Full/Unknown NaN flags wrong")
	}
}

func TestString(t *testing.T) {
	if s := Range(0, math.Inf(1)).String(); s != "[0, +inf]" {
		t.Errorf("String = %q", s)
	}
	if s := Unknown().String(); s != "[-inf, +inf]∪NaN" {
		t.Errorf("String = %q", s)
	}
}

// TestSoundness drives every operation with random concrete values drawn
// from random intervals (including infinite bounds and zeros) and asserts
// the abstract result always contains the concrete result — the property
// the analyzer's verdicts rest on.
func TestSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randInterval := func() Interval {
		pick := func() float64 {
			switch rng.Intn(6) {
			case 0:
				return 0
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			}
			return math.Round(rng.NormFloat64() * 10)
		}
		a, b := pick(), pick()
		if a > b {
			a, b = b, a
		}
		return Interval{Lo: a, Hi: b}
	}
	sample := func(iv Interval) float64 {
		if iv.Lo == iv.Hi {
			return iv.Lo
		}
		switch rng.Intn(4) {
		case 0:
			return iv.Lo
		case 1:
			return iv.Hi
		}
		lo, hi := iv.Lo, iv.Hi
		if math.IsInf(lo, -1) {
			lo = -1e6
		}
		if math.IsInf(hi, 1) {
			hi = 1e6
		}
		if lo > hi {
			return iv.Lo
		}
		return lo + rng.Float64()*(hi-lo)
	}
	ops := []struct {
		name string
		abs  func(a, b Interval) Interval
		conc func(x, y float64) float64
	}{
		{"add", Add, func(x, y float64) float64 { return x + y }},
		{"sub", Sub, func(x, y float64) float64 { return x - y }},
		{"mul", Mul, func(x, y float64) float64 { return x * y }},
		{"div", Div, func(x, y float64) float64 { return x / y }},
		{"min", Min, math.Min},
		{"max", Max, math.Max},
	}
	for i := 0; i < 20000; i++ {
		a, b := randInterval(), randInterval()
		x, y := sample(a), sample(b)
		for _, op := range ops {
			iv := op.abs(a, b)
			z := op.conc(x, y)
			if math.IsNaN(z) {
				if !iv.NaN {
					t.Fatalf("%s(%v, %v): concrete %g op %g = NaN not covered by %v", op.name, a, b, x, y, iv)
				}
				continue
			}
			if !iv.Contains(z) {
				t.Fatalf("%s(%v, %v): concrete %g op %g = %g outside %v", op.name, a, b, x, y, z, iv)
			}
		}
	}
}
