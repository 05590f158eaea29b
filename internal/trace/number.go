package trace

import (
	"math"
	"math/bits"
	"strconv"
)

// pow10 holds 10^prec for the precisions appendFixed formats itself; the
// text trace uses 3 and 6.
var pow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// appendFixed appends x with prec decimals, byte for byte what
// strconv.AppendFloat(dst, x, 'f', prec, 64) writes. strconv formats a
// fixed precision through its multiprecision decimal, which dominates a
// text trace's write time; this takes the exact integer route instead. x
// is mant·2^e, so x·10^prec is the 128-bit product mant·10^prec shifted
// right by -e, rounded half to even on the exact remainder. NaN, ±Inf,
// magnitudes of 2^52 and beyond (no right shift) or below 2^-11 (a shift
// of 64 bits or more), results of 2^63 and beyond and precisions above 9
// go to strconv.
func appendFixed(dst []byte, x float64, prec int) []byte {
	if prec < 0 || prec >= len(pow10) {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	b := math.Float64bits(x)
	var q uint64 // |x|·10^prec rounded; ±0 leaves it 0
	if b<<1 != 0 {
		exp := int(b>>52) & 0x7ff
		mant := b & (1<<52 - 1)
		if exp == 0 {
			exp = 1 // subnormal: no implicit bit
		} else {
			mant |= 1 << 52
		}
		shift := 1075 - exp // |x| = mant·2^-shift; NaN and ±Inf have shift < 0
		if shift <= 0 || shift >= 64 {
			return strconv.AppendFloat(dst, x, 'f', prec, 64)
		}
		hi, lo := bits.Mul64(mant, pow10[prec])
		if hi>>(shift-1) != 0 { // q would reach 2^63
			return strconv.AppendFloat(dst, x, 'f', prec, 64)
		}
		q = hi<<(64-shift) | lo>>shift
		rem, half := lo&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || rem == half && q&1 != 0 {
			q++
		}
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/pow10[prec], 10)
	if prec == 0 {
		return dst
	}
	var frac [len(pow10) - 1]byte
	f := q % pow10[prec]
	for i := prec - 1; i >= 0; i-- {
		frac[i] = byte('0' + f%10)
		f /= 10
	}
	dst = append(dst, '.')
	return append(dst, frac[:prec]...)
}

// appendShortest appends x as strconv.AppendFloat(dst, x, 'g', -1, 64)
// does. Integral values below 10^6 in magnitude, the ones %g prints without
// an exponent, take the integer route (a pipeline event's instruction
// count is one); everything else, -0 included, goes to strconv.
func appendShortest(dst []byte, x float64) []byte {
	if x > -1e6 && x < 1e6 {
		if i := int64(x); float64(i) == x && (i != 0 || !math.Signbit(x)) {
			return strconv.AppendInt(dst, i, 10)
		}
	}
	return strconv.AppendFloat(dst, x, 'g', -1, 64)
}
