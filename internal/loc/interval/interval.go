// Package interval implements the interval abstract domain the LOC semantic
// analyzer interprets formulas over. A value is abstracted as a closed range
// of extended reals [Lo, Hi] plus a NaN flag recording whether the concrete
// value may be IEEE NaN (the flag is tracked separately because NaN is
// unordered and would poison the range bounds). Every operation is a sound
// over-approximation of its float64 counterpart: if x ∈ a and y ∈ b then
// x⊕y ∈ Op(a, b) — NaN results are covered by the flag, infinite results by
// infinite bounds. Precision is sacrificed freely (corner cases widen to the
// full range) but soundness never is, since the analyzer's always-true /
// always-false verdicts gate code generation and service admission.
package interval

import (
	"math"
	"strconv"
)

var inf = math.Inf(1)

// Interval is a set of float64 values: every real in [Lo, Hi] (bounds may be
// ±Inf, and are themselves members), plus NaN when the flag is set.
type Interval struct {
	Lo, Hi float64
	NaN    bool
}

// Point abstracts a single concrete value.
func Point(v float64) Interval {
	if math.IsNaN(v) {
		return Interval{Lo: -inf, Hi: inf, NaN: true}
	}
	return Interval{Lo: v, Hi: v}
}

// Range abstracts the closed range [lo, hi]. It panics when lo > hi or a
// bound is NaN, which can only be a programming error in a schema
// declaration.
func Range(lo, hi float64) Interval {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		panic("interval: malformed range")
	}
	return Interval{Lo: lo, Hi: hi}
}

// Full is every real value, NaN excluded.
func Full() Interval { return Interval{Lo: -inf, Hi: inf} }

// Unknown is every float64 value including NaN — the abstraction of a value
// nothing is declared about.
func Unknown() Interval { return Interval{Lo: -inf, Hi: inf, NaN: true} }

// Contains reports whether v (not NaN) is a member.
func (a Interval) Contains(v float64) bool { return a.Lo <= v && v <= a.Hi }

// IsPoint reports whether the interval is a single non-NaN value.
func (a Interval) IsPoint() bool { return !a.NaN && a.Lo == a.Hi }

func (a Interval) hasInf() bool { return math.IsInf(a.Lo, -1) || math.IsInf(a.Hi, 1) }

// String renders the interval in the diagnostics' [lo, hi] form.
func (a Interval) String() string {
	s := "[" + fmtBound(a.Lo) + ", " + fmtBound(a.Hi) + "]"
	if a.NaN {
		s += "∪NaN"
	}
	return s
}

func fmtBound(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+inf"
	case math.IsInf(v, -1):
		return "-inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Neg returns -a.
func (a Interval) Neg() Interval { return Interval{Lo: -a.Hi, Hi: -a.Lo, NaN: a.NaN} }

// Abs returns |a|.
func (a Interval) Abs() Interval {
	switch {
	case a.Lo >= 0:
		return a
	case a.Hi <= 0:
		return a.Neg()
	}
	return Interval{Lo: 0, Hi: math.Max(-a.Lo, a.Hi), NaN: a.NaN}
}

// Add returns a + b. (+Inf) + (-Inf) is NaN, so mixed infinities set the
// flag; the affected bound widens to its infinity.
func Add(a, b Interval) Interval {
	nan := a.NaN || b.NaN ||
		(math.IsInf(a.Hi, 1) && math.IsInf(b.Lo, -1)) ||
		(math.IsInf(a.Lo, -1) && math.IsInf(b.Hi, 1))
	lo, hi := a.Lo+b.Lo, a.Hi+b.Hi
	if math.IsNaN(lo) {
		lo = -inf
	}
	if math.IsNaN(hi) {
		hi = inf
	}
	return Interval{Lo: lo, Hi: hi, NaN: nan}
}

// Sub returns a - b.
func Sub(a, b Interval) Interval { return Add(a, b.Neg()) }

// Mul returns a * b. 0 × ±Inf is NaN: when one operand may be zero and the
// other may be infinite the flag is set and the range widens to Full, which
// is coarse but sound.
func Mul(a, b Interval) Interval {
	nan := a.NaN || b.NaN
	if (a.Contains(0) && b.hasInf()) || (b.Contains(0) && a.hasInf()) {
		return Interval{Lo: -inf, Hi: inf, NaN: true}
	}
	lo, hi := inf, -inf
	for _, x := range [2]float64{a.Lo, a.Hi} {
		for _, y := range [2]float64{b.Lo, b.Hi} {
			p := x * y
			if math.IsNaN(p) {
				return Interval{Lo: -inf, Hi: inf, NaN: true}
			}
			lo, hi = math.Min(lo, p), math.Max(hi, p)
		}
	}
	return Interval{Lo: lo, Hi: hi, NaN: nan}
}

// Div returns a / b. A divisor that may be zero makes every sign of infinity
// (and, with a zero dividend, NaN) reachable, so the result widens to the
// full range; Inf/Inf likewise flags NaN.
func Div(a, b Interval) Interval {
	nan := a.NaN || b.NaN
	if b.Contains(0) {
		nan = nan || a.Contains(0) || (a.hasInf() && b.hasInf())
		return Interval{Lo: -inf, Hi: inf, NaN: nan}
	}
	if a.hasInf() && b.hasInf() {
		return Interval{Lo: -inf, Hi: inf, NaN: true}
	}
	lo, hi := inf, -inf
	for _, x := range [2]float64{a.Lo, a.Hi} {
		for _, y := range [2]float64{b.Lo, b.Hi} {
			q := x / y
			if math.IsNaN(q) {
				return Interval{Lo: -inf, Hi: inf, NaN: true}
			}
			lo, hi = math.Min(lo, q), math.Max(hi, q)
		}
	}
	return Interval{Lo: lo, Hi: hi, NaN: nan}
}

// Min returns the elementwise minimum min(a, b).
func Min(a, b Interval) Interval {
	return Interval{Lo: math.Min(a.Lo, b.Lo), Hi: math.Min(a.Hi, b.Hi), NaN: a.NaN || b.NaN}
}

// Max returns the elementwise maximum max(a, b).
func Max(a, b Interval) Interval {
	return Interval{Lo: math.Max(a.Lo, b.Lo), Hi: math.Max(a.Hi, b.Hi), NaN: a.NaN || b.NaN}
}
