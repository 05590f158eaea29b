package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkNumber asserts that appendFixed matches strconv's 'f' at every
// precision from 0 to 9 and appendShortest matches its 'g', -1, both
// appending after an existing prefix.
func checkNumber(t testing.TB, x float64) {
	t.Helper()
	var got, want [64]byte
	for prec := 0; prec <= 9; prec++ {
		g := appendFixed(append(got[:0], "v="...), x, prec)
		w := strconv.AppendFloat(append(want[:0], "v="...), x, 'f', prec, 64)
		if !bytes.Equal(g, w) {
			t.Fatalf("appendFixed(%v [%#016x], %d) = %q, want %q", x, math.Float64bits(x), prec, g, w)
		}
	}
	g := appendShortest(append(got[:0], "v="...), x)
	w := strconv.AppendFloat(append(want[:0], "v="...), x, 'g', -1, 64)
	if !bytes.Equal(g, w) {
		t.Fatalf("appendShortest(%v [%#016x]) = %q, want %q", x, math.Float64bits(x), g, w)
	}
}

// numberEdges are the values at or next to every boundary of the two fast
// paths: zero and its sign, the non-finite values, the extremes, the ends of
// exact integers, the 2^52 / 2^-11 limits of the fixed path's shift and the
// 10^6 limit of the integral %g path.
var numberEdges = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	1<<53 + 1, 1<<53 - 1, 1 << 53, 1<<52 + 0.5, 1<<52 - 0.5, 1 << 52, 1 << 63, 1 << 64,
	0x1p-11, 0x1.fffffffffffffp-12, 0x1p-10, 0.5, 1.5, 2.5, -2.5, 0.125, 0.375,
	999999, 1e6, -999999, -1e6, 999999.5, 1e6 - 0.5, 1e6 + 1, 100000, 1, -1,
	0.0005, 0.0015, 9.9995, 2.5e-4, 0.0000005, 1.5e-6, 1.573, 0.768133,
	0.1 + 0.2, 123456789.123456789, 1e21, 1e20, 1e300, -1e300,
	18446744.073709551615, 9223372036.854775807, 4503599627370495.5,
}

// randomNumber draws from the mixes that stress the fast paths: raw bit
// patterns (few, as most fall back to strconv at a high cost), random
// mantissas at the binary exponents around the fixed path's limits,
// decimal-grid near-ties, exact binary ties, paper magnitudes of time
// (cycles/600 MHz) and energy, integers around the %g limit and wide
// normal values.
func randomNumber(rng *rand.Rand) float64 {
	if rng.Intn(32) == 0 {
		return math.Float64frombits(rng.Uint64())
	}
	switch rng.Intn(8) {
	case 0:
		return math.Ldexp(1+rng.Float64(), rng.Intn(80)-20)
	case 1:
		return float64(rng.Intn(1e7))/1e4 + 0.0005
	case 2:
		return float64(rng.Intn(1e6))/1e6 + []float64{0.0005, 0.0015, 2.5e-4, 5e-7}[rng.Intn(4)]
	case 3:
		return float64(rng.Intn(1<<24)+1) / float64(uint64(1)<<rng.Intn(40))
	case 4:
		return float64(rng.Intn(8e6)) / 600
	case 5:
		return rng.Float64() * 1e5
	case 6:
		return float64(rng.Intn(4e6) - 2e6)
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
}

// TestAppendNumberMatchesStrconv checks both helpers against strconv on the
// edge values and a fixed-seed sweep of 10^5 values, 1.1·10^6 comparisons
// (a tenth of that in -short mode).
func TestAppendNumberMatchesStrconv(t *testing.T) {
	for _, x := range numberEdges {
		checkNumber(t, x)
		checkNumber(t, -x)
	}
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < n; i++ {
		checkNumber(t, randomNumber(rng))
	}
}

func FuzzAppendNumber(f *testing.F) {
	for _, x := range numberEdges {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) { checkNumber(t, x) })
}
