package traffic

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nepdvs/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MeanMbps: 0},
		{MeanMbps: -5},
		{MeanMbps: 100, BurstFactor: 0.5},
		{MeanMbps: 100, Sizes: []SizeBin{{Bytes: -1, Weight: 1}}},
		{MeanMbps: 100, Sizes: []SizeBin{{Bytes: 100, Weight: 0}}},
		// Non-finite values pass a plain range test.
		{MeanMbps: math.NaN()},
		{MeanMbps: math.Inf(1)},
		{MeanMbps: math.Inf(-1)},
		{MeanMbps: 100, BurstFactor: math.NaN()},
		{MeanMbps: 100, BurstFactor: math.Inf(1)},
		{MeanMbps: 100, Sizes: []SizeBin{{Bytes: 100, Weight: math.NaN()}}},
		{MeanMbps: 100, Sizes: []SizeBin{{Bytes: 100, Weight: math.Inf(1)}}},
	}
	for _, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("NewGenerator(%+v): expected error", cfg)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	g, err := NewGenerator(Config{MeanMbps: 900})
	if err != nil {
		t.Fatal(err)
	}
	cfg := g.cfg
	if cfg.Ports != 16 || cfg.BurstFactor != 1.8 || len(cfg.Sizes) != 3 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []Packet {
		g, err := NewGenerator(Config{MeanMbps: 900, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return g.GenerateUntil(2 * sim.Millisecond)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	g2, _ := NewGenerator(Config{MeanMbps: 900, Seed: 43})
	c := g2.GenerateUntil(2 * sim.Millisecond)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestMeanRateConvergence(t *testing.T) {
	const target = 900.0
	g, err := NewGenerator(Config{MeanMbps: target, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dur := 200 * sim.Millisecond
	pkts := g.GenerateUntil(dur)
	got := MeasureMbps(pkts, dur)
	if math.Abs(got-target)/target > 0.10 {
		t.Fatalf("measured %v Mbps over %v, want within 10%% of %v", got, dur, target)
	}
}

func TestArrivalsMonotone(t *testing.T) {
	g, _ := NewGenerator(Config{MeanMbps: 900, Seed: 3})
	pkts := g.GenerateUntil(5 * sim.Millisecond)
	if len(pkts) < 100 {
		t.Fatalf("only %d packets in 5ms at 900 Mbps", len(pkts))
	}
	for k := 1; k < len(pkts); k++ {
		if pkts[k].Arrival < pkts[k-1].Arrival {
			t.Fatalf("arrival order violated at %d", k)
		}
		if pkts[k].ID != pkts[k-1].ID+1 {
			t.Fatalf("IDs not sequential at %d", k)
		}
	}
}

func TestPortsAndSizesCovered(t *testing.T) {
	g, _ := NewGenerator(Config{MeanMbps: 900, Seed: 5})
	pkts := g.GenerateUntil(20 * sim.Millisecond)
	ports := map[int]int{}
	sizes := map[int]int{}
	for _, p := range pkts {
		ports[p.Port]++
		sizes[p.Size]++
		if p.Port < 0 || p.Port > 15 {
			t.Fatalf("port %d out of range", p.Port)
		}
	}
	if len(ports) != 16 {
		t.Errorf("only %d ports used", len(ports))
	}
	for _, want := range []int{40, 576, 1500} {
		if sizes[want] == 0 {
			t.Errorf("size %d never sampled", want)
		}
	}
	if len(sizes) != 3 {
		t.Errorf("unexpected sizes: %v", sizes)
	}
}

// Property: window-scale volume fluctuates — the coefficient of variation of
// per-window bit counts must be well above the Poisson-only level, because
// TDVS exploration depends on window volumes straddling thresholds.
func TestBurstinessProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, err := NewGenerator(Config{MeanMbps: 900, Seed: seed, BurstFactor: 2, BurstFraction: 0.3})
		if err != nil {
			return false
		}
		window := 50 * sim.Microsecond
		dur := 20 * sim.Millisecond
		pkts := g.GenerateUntil(dur)
		n := int(dur / window)
		bits := make([]float64, n)
		for _, p := range pkts {
			bits[int(p.Arrival/window)] += float64(p.Bits())
		}
		var mean, varsum float64
		for _, b := range bits {
			mean += b
		}
		mean /= float64(n)
		for _, b := range bits {
			varsum += (b - mean) * (b - mean)
		}
		cv := math.Sqrt(varsum/float64(n)) / mean
		return cv > 0.15 && cv < 2.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanSize(t *testing.T) {
	if got := MeanSize(DefaultSizes); math.Abs(got-466) > 1 {
		t.Errorf("MeanSize(DefaultSizes) = %v, want ~466", got)
	}
	if MeanSize(nil) != 0 {
		t.Error("MeanSize(nil) != 0")
	}
}

func TestMeasureMbpsDegenerate(t *testing.T) {
	if !math.IsNaN(MeasureMbps(nil, 0)) {
		t.Error("zero duration should be NaN")
	}
}

func TestDayModelShape(t *testing.T) {
	m := DefaultDayModel()
	peak := m.SmoothRate(m.PeakHour)
	night := m.SmoothRate(m.PeakHour + 12)
	if peak != m.PeakMbps {
		t.Errorf("peak rate = %v, want %v", peak, m.PeakMbps)
	}
	if math.Abs(night-m.MinMbps) > 1e-9 {
		t.Errorf("overnight rate = %v, want %v", night, m.MinMbps)
	}
	// Periodicity.
	if math.Abs(m.SmoothRate(3)-m.SmoothRate(27)) > 1e-9 {
		t.Error("day curve not 24h periodic")
	}
	if math.Abs(m.SmoothRate(-2)-m.SmoothRate(22)) > 1e-9 {
		t.Error("negative hours not wrapped")
	}
}

func TestDayModelBins(t *testing.T) {
	m := DefaultDayModel()
	bins, err := m.Bins(9, 17, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 96 {
		t.Fatalf("got %d bins, want 96", len(bins))
	}
	for _, b := range bins {
		if !(b.Min <= b.Med && b.Med <= b.Max) {
			t.Fatalf("bin %v violates min<=med<=max", b)
		}
	}
	// Afternoon peak must dominate morning.
	var am, pm float64
	for _, b := range bins {
		if b.Hour < 10 {
			am += b.Med
		}
		if b.Hour >= 13 && b.Hour < 16 {
			pm += b.Med
		}
	}
	if pm <= am {
		t.Errorf("afternoon load (%v) should exceed morning (%v)", pm, am)
	}
	out := RenderBins(bins)
	if !strings.Contains(out, "max_mbps") || len(strings.Split(out, "\n")) < 90 {
		t.Errorf("RenderBins output malformed")
	}
}

func TestDayModelBinsDeterministic(t *testing.T) {
	m := DefaultDayModel()
	a, _ := m.Bins(9, 12, 5, 20)
	b, _ := m.Bins(9, 12, 5, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("bins not deterministic under seed")
	}
}

func TestDayModelErrors(t *testing.T) {
	bad := &DayModel{MinMbps: 100, PeakMbps: 50}
	if _, err := bad.Bins(0, 1, 5, 10); err == nil {
		t.Error("inverted min/peak accepted")
	}
	m := DefaultDayModel()
	if _, err := m.Bins(5, 5, 5, 10); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := m.Bins(0, 1, 0, 10); err == nil {
		t.Error("zero bin size accepted")
	}
	if _, err := m.SampleLevel(LevelHigh, 0, 1); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := m.SampleLevel(Level(99), 1, 1); err == nil {
		t.Error("unknown level accepted")
	}
}

func TestSampleLevelOrdering(t *testing.T) {
	m := DefaultDayModel()
	var rates []float64
	for _, lv := range []Level{LevelLow, LevelMedium, LevelHigh} {
		cfg, err := m.SampleLevel(lv, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		rates = append(rates, cfg.MeanMbps)
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Fatalf("level rates not ordered: %v", rates)
	}
	// High level at scale 4 should be near the IXP regime (~1 Gbps).
	if rates[2] < 800 || rates[2] > 1200 {
		t.Errorf("high-level rate = %v Mbps, want ~1000", rates[2])
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"low": LevelLow, "medium": LevelMedium, "med": LevelMedium, "high": LevelHigh,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("extreme"); err == nil {
		t.Error("unknown level accepted")
	}
	// Round trip with String.
	for _, lv := range []Level{LevelLow, LevelMedium, LevelHigh} {
		got, err := ParseLevel(lv.String())
		if err != nil || got != lv {
			t.Errorf("round trip %v failed", lv)
		}
	}
}

func TestLevelString(t *testing.T) {
	if LevelLow.String() != "low" || LevelMedium.String() != "medium" || LevelHigh.String() != "high" {
		t.Error("level names wrong")
	}
	if !strings.Contains(Level(9).String(), "9") {
		t.Error("unknown level should render its number")
	}
}

func TestPacketFileRoundTrip(t *testing.T) {
	g, _ := NewGenerator(Config{MeanMbps: 500, Seed: 11})
	pkts := g.GenerateUntil(1 * sim.Millisecond)
	var buf bytes.Buffer
	if err := WritePackets(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPackets(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pkts) {
		t.Fatalf("round trip mismatch: %d vs %d packets", len(got), len(pkts))
	}
}

func TestReadPacketsErrors(t *testing.T) {
	cases := []string{
		"1 2\n",              // short line
		"x 40 3\n",           // bad arrival
		"-5 40 3\n",          // negative arrival
		"10 0 3\n",           // zero size
		"10 999999 3\n",      // oversized
		"10 40 -1\n",         // bad port
		"10 40 z\n",          // bad port
		"20 40 1\n10 40 1\n", // out of order
	}
	for _, src := range cases {
		if _, err := ReadPackets(strings.NewReader(src)); err == nil {
			t.Errorf("ReadPackets(%q): expected error", src)
		}
	}
}

func BenchmarkGenerator(b *testing.B) {
	g, err := NewGenerator(Config{MeanMbps: 900, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
