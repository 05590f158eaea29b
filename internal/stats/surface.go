package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Surface holds a scalar value per (x, y) design point — the paper's
// Figures 8 and 9 plot the 80th-percentile power/throughput over the
// (threshold, window size) grid. Points may be added in any order; rendering
// sorts the axes.
type Surface struct {
	XLabel, YLabel, ZLabel string
	points                 map[[2]float64]float64
}

// NewSurface creates an empty surface with axis labels for rendering.
func NewSurface(xLabel, yLabel, zLabel string) *Surface {
	return &Surface{
		XLabel: xLabel, YLabel: yLabel, ZLabel: zLabel,
		points: make(map[[2]float64]float64),
	}
}

// Set records z at design point (x, y), overwriting any previous value.
func (s *Surface) Set(x, y, z float64) { s.points[[2]float64{x, y}] = z }

// Get returns the value at (x, y) and whether it was set.
func (s *Surface) Get(x, y float64) (float64, bool) {
	z, ok := s.points[[2]float64{x, y}]
	return z, ok
}

// Axes returns the sorted distinct x and y coordinates.
func (s *Surface) Axes() (xs, ys []float64) {
	xset := map[float64]bool{}
	yset := map[float64]bool{}
	for p := range s.points {
		xset[p[0]] = true
		yset[p[1]] = true
	}
	for x := range xset {
		xs = append(xs, x)
	}
	for y := range yset {
		ys = append(ys, y)
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return xs, ys
}

// MinZ returns the minimum z over all points, with its coordinates; ties
// go to the smallest (x, y). NaN values are skipped. When no point has a
// value (an empty surface, or every z NaN), all three results are NaN.
func (s *Surface) MinZ() (x, y, z float64) {
	return s.extremeZ(func(v, z float64) bool { return v < z })
}

// MaxZ returns the maximum z over all points, with its coordinates, under
// the rules of MinZ.
func (s *Surface) MaxZ() (x, y, z float64) {
	return s.extremeZ(func(v, z float64) bool { return v > z })
}

// extremeZ returns the point whose z is better than every other non-NaN z,
// ties going to the smallest (x, y), or three NaNs when there is none.
func (s *Surface) extremeZ(better func(v, z float64) bool) (x, y, z float64) {
	x, y, z = math.NaN(), math.NaN(), math.NaN()
	for p, v := range s.points {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(z) || better(v, z) || (v == z && (p[0] < x || (p[0] == x && p[1] < y))) {
			x, y, z = p[0], p[1], v
		}
	}
	return x, y, z
}

// Render writes the surface as a gnuplot splot data block: one line per
// point, blank line between x scanlines, missing points rendered as "?".
func (s *Surface) Render() string {
	xs, ys := s.Axes()
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\t%s\t%s\n", s.XLabel, s.YLabel, s.ZLabel)
	for _, x := range xs {
		for _, y := range ys {
			if z, ok := s.Get(x, y); ok {
				fmt.Fprintf(&b, "%g\t%g\t%.6g\n", x, y, z)
			} else {
				fmt.Fprintf(&b, "%g\t%g\t?\n", x, y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
