package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramErrors(t *testing.T) {
	cases := []struct{ min, max, step float64 }{
		{0, 10, 0},
		{0, 10, -1},
		{10, 10, 1},
		{10, 5, 1},
		{math.NaN(), 10, 1},
		{0, math.NaN(), 1},
		{0, 10, math.NaN()},
		{0, 1e18, 1e-9}, // too many bins
	}
	for _, c := range cases {
		if _, err := NewHistogram(c.min, c.max, c.step); err == nil {
			t.Errorf("NewHistogram(%v, %v, %v): expected error", c.min, c.max, c.step)
		}
	}
}

func TestHistogramPaperExample(t *testing.T) {
	// The paper's formula (1) period: <40, 80, 5> gives bins
	// (-inf,40], (40,45], ..., (75,80], (80,+inf) — 8 interior bins.
	h := mustHistogram(40, 80, 5)
	if h.NumBins() != 8 {
		t.Fatalf("NumBins = %d, want 8", h.NumBins())
	}
	h.Add(40)   // underflow (inclusive upper edge of underflow bin)
	h.Add(40.1) // bin 1
	h.Add(45)   // bin 1 (edges are (lo, hi])
	h.Add(45.1) // bin 2
	h.Add(80)   // bin 8
	h.Add(80.5) // overflow
	h.Add(-3)   // underflow
	wantCounts := []uint64{2, 2, 1, 0, 0, 0, 0, 0, 1, 1}
	for k, want := range wantCounts {
		if got := h.counts[k]; got != want {
			t.Errorf("bin %d count = %d, want %d", k, got, want)
		}
	}
	if h.total != 7 {
		t.Errorf("total = %d, want 7", h.total)
	}
}

func TestHistogramNaN(t *testing.T) {
	h := mustHistogram(0, 10, 1)
	h.Add(math.NaN())
	h.Add(5)
	if h.NaNs() != 1 || h.total != 1 {
		t.Fatalf("NaNs=%d total=%d, want 1,1", h.NaNs(), h.total)
	}
	if h.Mean() != 5 {
		t.Errorf("Mean = %v, want 5 (NaN excluded)", h.Mean())
	}
}

func TestHistogramMoments(t *testing.T) {
	h := mustHistogram(0, 100, 1)
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Add(v)
	}
	if got := h.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := h.StdDev(); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if h.lo != 2 || h.hi != 9 {
		t.Errorf("observed range = [%v, %v], want [2, 9]", h.lo, h.hi)
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := mustHistogram(0, 10, 1)
	if !math.IsNaN(h.Mean()) || !math.IsNaN(h.StdDev()) {
		t.Error("empty histogram moments should be NaN")
	}
	if !math.IsNaN(h.QuantileUpper(0.8)) || !math.IsNaN(h.QuantileLower(0.8)) {
		t.Error("empty histogram quantiles should be NaN")
	}
	for _, v := range h.CDF() {
		if v != 0 {
			t.Error("empty CDF should be all zeros")
		}
	}
}

func TestCDFAndCCDF(t *testing.T) {
	h := mustHistogram(0, 4, 1)
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5} {
		h.Add(v)
	}
	cdf := h.CDF()
	// bins: underflow, (0,1], (1,2], (2,3], (3,4], overflow
	want := []float64{0, 0.25, 0.5, 0.75, 1, 1}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-12 {
			t.Fatalf("CDF = %v, want %v", cdf, want)
		}
	}
	ccdf := h.CCDF()
	wantC := []float64{1, 1, 0.75, 0.5, 0.25, 0}
	for i := range wantC {
		if math.Abs(ccdf[i]-wantC[i]) > 1e-12 {
			t.Fatalf("CCDF = %v, want %v", ccdf, wantC)
		}
	}
}

func TestQuantiles(t *testing.T) {
	h := mustHistogram(0, 10, 1)
	for i := 1; i <= 10; i++ {
		h.Add(float64(i) - 0.5) // one sample per bin
	}
	if got := h.QuantileUpper(0.8); got != 8 {
		t.Errorf("QuantileUpper(0.8) = %v, want 8", got)
	}
	if got := h.QuantileLower(0.8); got != 2 {
		t.Errorf("QuantileLower(0.8) = %v, want 2", got)
	}
	if got := h.QuantileUpper(1.0); got != 10 {
		t.Errorf("QuantileUpper(1.0) = %v, want 10", got)
	}
}

func TestQuantileOverflow(t *testing.T) {
	h := mustHistogram(0, 10, 1)
	h.Add(100)
	if got := h.QuantileUpper(0.5); !math.IsInf(got, 1) {
		t.Errorf("QuantileUpper with all-overflow = %v, want +Inf", got)
	}
	if got := h.QuantileLower(0.5); got != 10 {
		t.Errorf("QuantileLower with all-overflow = %v, want 10 (lower edge of overflow)", got)
	}
}

func TestRenderViews(t *testing.T) {
	h := mustHistogram(0, 2, 1)
	h.Add(0.5)
	h.Add(1.5)
	for _, view := range []string{"hist", "cdf", "ccdf"} {
		out, err := h.Render(view)
		if err != nil {
			t.Fatalf("Render(%q): %v", view, err)
		}
		if !strings.Contains(out, view) {
			t.Errorf("Render(%q) missing header: %s", view, out)
		}
		if len(strings.Split(strings.TrimSpace(out), "\n")) != 5 { // header + 4 bins
			t.Errorf("Render(%q) unexpected row count:\n%s", view, out)
		}
	}
	if _, err := h.Render("pie"); err == nil {
		t.Error("unknown view should error")
	}
}

// Property: mass is conserved — the sum of all bin counts equals Total, the
// hist fractions sum to 1, CDF is non-decreasing ending at 1, CCDF is
// non-increasing starting at 1, for any sample set.
func TestHistogramMassProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := mustHistogram(-5, 5, 0.5)
		cnt := int(n)%200 + 1
		for i := 0; i < cnt; i++ {
			h.Add(rng.NormFloat64() * 4)
		}
		var sum uint64
		for k := 0; k <= h.NumBins()+1; k++ {
			sum += h.counts[k]
		}
		if sum != h.total {
			return false
		}
		var fsum float64
		for _, v := range h.Fractions() {
			fsum += v
		}
		if math.Abs(fsum-1) > 1e-9 {
			return false
		}
		cdf := h.CDF()
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] {
				return false
			}
		}
		if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
			return false
		}
		ccdf := h.CCDF()
		for i := 1; i < len(ccdf); i++ {
			if ccdf[i] > ccdf[i-1] {
				return false
			}
		}
		return math.Abs(ccdf[0]-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the binned QuantileUpper is always an upper bound for the exact
// sample quantile, and within one bin width of it when the sample lies in
// the interior range.
func TestQuantileBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := mustHistogram(0, 1, 0.01)
		var s sample
		for i := 0; i < 100; i++ {
			v := rng.Float64()
			h.Add(v)
			s.add(v)
		}
		for _, q := range []float64{0.1, 0.5, 0.8, 0.95} {
			exact := s.quantile(q)
			binned := h.QuantileUpper(q)
			if binned < exact-1e-12 || binned > exact+0.01+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleQuantile(t *testing.T) {
	var s sample
	if !math.IsNaN(s.quantile(0.5)) || !math.IsNaN(s.mean()) {
		t.Error("empty sample should return NaN")
	}
	for _, v := range []float64{3, 1, 2, 5, 4} {
		s.add(v)
	}
	s.add(math.NaN())
	if s.len() != 5 {
		t.Fatalf("len = %d, want 5 (NaN ignored)", s.len())
	}
	if got := s.quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := s.quantile(1); got != 5 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := s.quantile(0.5); got != 3 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	if got := s.mean(); got != 3 {
		t.Errorf("Mean = %v", got)
	}
}

func TestSurface(t *testing.T) {
	s := NewSurface("threshold", "window", "power")
	s.Set(800, 20000, 1.0)
	s.Set(800, 40000, 1.1)
	s.Set(1000, 20000, 0.9)
	s.Set(1000, 40000, 1.2)
	if len(s.points) != 4 {
		t.Fatalf("len(points) = %d", len(s.points))
	}
	xs, ys := s.Axes()
	if len(xs) != 2 || xs[0] != 800 || xs[1] != 1000 {
		t.Errorf("xs = %v", xs)
	}
	if len(ys) != 2 || ys[0] != 20000 || ys[1] != 40000 {
		t.Errorf("ys = %v", ys)
	}
	x, y, z := s.MinZ()
	if x != 1000 || y != 20000 || z != 0.9 {
		t.Errorf("MinZ = (%v, %v, %v)", x, y, z)
	}
	x, y, z = s.MaxZ()
	if x != 1000 || y != 40000 || z != 1.2 {
		t.Errorf("MaxZ = (%v, %v, %v)", x, y, z)
	}
	out := s.Render()
	if !strings.Contains(out, "threshold") || !strings.Contains(out, "0.9") {
		t.Errorf("Render output missing data:\n%s", out)
	}
}

func TestSurfaceEmpty(t *testing.T) {
	s := NewSurface("x", "y", "z")
	if _, _, z := s.MinZ(); !math.IsNaN(z) {
		t.Error("empty MinZ should be NaN")
	}
	if _, _, z := s.MaxZ(); !math.IsNaN(z) {
		t.Error("empty MaxZ should be NaN")
	}
}

// A surface whose every z is NaN (no design point had a distribution) has
// no extreme point: MinZ and MaxZ report NaN, never an infinite z. NaN
// points beside real ones are skipped.
func TestSurfaceAllNaN(t *testing.T) {
	s := NewSurface("x", "y", "z")
	s.Set(800, 20000, math.NaN())
	s.Set(1000, 40000, math.NaN())
	for name, extreme := range map[string]func() (float64, float64, float64){"MinZ": s.MinZ, "MaxZ": s.MaxZ} {
		if x, y, z := extreme(); !math.IsNaN(x) || !math.IsNaN(y) || !math.IsNaN(z) {
			t.Errorf("all-NaN %s = (%v, %v, %v), want NaN", name, x, y, z)
		}
	}
	s.Set(1000, 20000, 0.5)
	if x, y, z := s.MinZ(); x != 1000 || y != 20000 || z != 0.5 {
		t.Errorf("MinZ = (%v, %v, %v), want the one real point", x, y, z)
	}
	if x, y, z := s.MaxZ(); x != 1000 || y != 20000 || z != 0.5 {
		t.Errorf("MaxZ = (%v, %v, %v), want the one real point", x, y, z)
	}
}

func TestSurfaceMissingPoint(t *testing.T) {
	s := NewSurface("x", "y", "z")
	s.Set(1, 1, 5)
	s.Set(2, 2, 6)
	out := s.Render()
	if !strings.Contains(out, "?") {
		t.Errorf("Render should mark missing grid points:\n%s", out)
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := mustHistogram(0, 100, 0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(float64(i % 100))
	}
}

// sample holds raw observations: the exact-quantile oracle that binned
// quantiles are checked against.
type sample struct {
	xs     []float64
	sorted bool
}

// add appends an observation, ignoring NaN.
func (s *sample) add(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.xs = append(s.xs, v)
	s.sorted = false
}

// len reports the number of observations.
func (s *sample) len() int { return len(s.xs) }

// quantile returns the q-th quantile (nearest-rank), NaN when empty.
func (s *sample) quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.xs[idx]
}

// mean returns the arithmetic mean, NaN when empty.
func (s *sample) mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.xs {
		sum += v
	}
	return sum / float64(len(s.xs))
}

// mustHistogram is NewHistogram for statically known-good periods.
func mustHistogram(min, max, step float64) *Histogram {
	h, err := NewHistogram(min, max, step)
	if err != nil {
		panic(err)
	}
	return h
}
