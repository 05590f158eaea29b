package policy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nepdvs/internal/sim"
)

func TestLadderFig5(t *testing.T) {
	l := MustLadder(1000)
	if l.Levels() != 5 {
		t.Fatalf("levels = %d, want 5", l.Levels())
	}
	// Paper Figure 5 exactly.
	wantMHz := []float64{600, 550, 500, 450, 400}
	wantV := []float64{1.3, 1.25, 1.2, 1.15, 1.1}
	wantTh := []float64{1000, 916, 833, 750, 666}
	for k, s := range l.Steps {
		if s.VF.MHz != wantMHz[k] {
			t.Errorf("step %d MHz = %v, want %v", k, s.VF.MHz, wantMHz[k])
		}
		if diff := s.VF.Volts - wantV[k]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("step %d V = %v, want %v", k, s.VF.Volts, wantV[k])
		}
		if s.ThresholdMbps != wantTh[k] {
			t.Errorf("step %d threshold = %v, want %v", k, s.ThresholdMbps, wantTh[k])
		}
	}
	out := l.String()
	if !strings.Contains(out, "916") || !strings.Contains(out, "1.15") {
		t.Errorf("ladder table:\n%s", out)
	}
}

func TestLadderErrors(t *testing.T) {
	for _, top := range []float64{0, -10, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewLadder(top); err == nil {
			t.Errorf("top threshold %v accepted", top)
		}
	}
}

// Property: ladder VF and thresholds are strictly decreasing, and Clamp
// always lands in range.
func TestLadderMonotoneProperty(t *testing.T) {
	f := func(topRaw uint16, lvl int8) bool {
		top := float64(topRaw%5000) + 600
		l, err := NewLadder(top)
		if err != nil {
			return false
		}
		for k := 1; k < l.Levels(); k++ {
			if l.Steps[k].VF.MHz >= l.Steps[k-1].VF.MHz ||
				l.Steps[k].VF.Volts >= l.Steps[k-1].VF.Volts ||
				l.Steps[k].ThresholdMbps >= l.Steps[k-1].ThresholdMbps {
				return false
			}
			// Dynamic power, (V/Vref)²·(f/fref), falls with each step down.
			if l.Steps[k].VF.EnergyScale()*l.Steps[k].VF.MHz >= l.Steps[k-1].VF.EnergyScale()*l.Steps[k-1].VF.MHz {
				return false
			}
		}
		c := l.Clamp(int(lvl))
		return c >= 0 && c < l.Levels()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOracleLevel(t *testing.T) {
	l := MustLadder(1000) // thresholds 1000, 916, 833, 750, 666
	cases := []struct {
		volume float64
		want   int
	}{
		{1200, 0}, // above every threshold: full speed
		{1000, 0}, // at the top threshold (not strictly below)
		{950, 1},  // below 1000, above 916
		{900, 2},
		{800, 3},
		{700, 4},
		{100, 4}, // clamped at the bottom
	}
	for _, c := range cases {
		if got := OracleLevel(l, c.volume); got != c.want {
			t.Errorf("OracleLevel(%v) = %d, want %d", c.volume, got, c.want)
		}
	}
}

// Property: the oracle level is monotone non-increasing in volume and
// always within the ladder.
func TestOracleLevelMonotoneProperty(t *testing.T) {
	l := MustLadder(1000)
	f := func(a, b uint16) bool {
		va, vb := float64(a), float64(b)
		if va > vb {
			va, vb = vb, va
		}
		la, lb := OracleLevel(l, va), OracleLevel(l, vb)
		return la >= lb && la >= 0 && la < l.Levels()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowVolumes(t *testing.T) {
	w := sim.Millisecond
	arrivals := []sim.Time{0, w / 2, w, 3 * w, 10 * w}
	bits := []uint64{1e6, 1e6, 2e6, 4e6, 8e6}
	vols, err := WindowVolumes(arrivals, bits, w, 4*w)
	if err != nil {
		t.Fatal(err)
	}
	if len(vols) != 5 {
		t.Fatalf("got %d windows", len(vols))
	}
	// Window 0: 2e6 bits over 1 ms = 2000 Mbps; window 1: 2000; window 3:
	// 4000; the arrival at 10·w is outside [0, total) and dropped.
	want := []float64{2000, 2000, 0, 4000, 0}
	for i := range want {
		if diff := vols[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("vols = %v, want %v", vols, want)
		}
	}
	if _, err := WindowVolumes(arrivals, bits[:2], w, 4*w); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WindowVolumes(arrivals, bits, 0, 4*w); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := WindowVolumes(arrivals, bits, w, 0); err == nil {
		t.Error("zero total accepted")
	}
}
