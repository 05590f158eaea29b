package policy

import (
	"fmt"
	"math"

	"nepdvs/internal/power"
	"nepdvs/internal/sim"
)

// Step is one rung of the VF ladder with its TDVS traffic threshold.
type Step struct {
	VF            power.VF
	ThresholdMbps float64
}

// Ladder is the ordered set of operating points, highest VF first.
type Ladder struct {
	Steps []Step
}

// NewLadder builds the paper's Figure 5 ladder: 600→400 MHz in 50 MHz
// steps, 1.3→1.1 V in 0.05 V steps (the XScale-style linear mapping), with
// each rung's traffic threshold scaled by its frequency ratio and truncated
// to whole Mbps exactly as the paper tabulates (1000 → 916, 833, 750, 666).
func NewLadder(topThresholdMbps float64) (Ladder, error) {
	if !(topThresholdMbps > 0) || math.IsInf(topThresholdMbps, 1) {
		return Ladder{}, fmt.Errorf("policy: top threshold %v Mbps is not a positive finite rate", topThresholdMbps)
	}
	var l Ladder
	for mhz := 600.0; mhz >= 400; mhz -= 50 {
		// Round to whole centivolts so the XScale-style linear mapping
		// yields the paper's exact 1.10/1.15/1.20/1.25/1.30 V values.
		volts := math.Round((1.1+(mhz-400)/200*0.2)*100) / 100
		l.Steps = append(l.Steps, Step{
			VF:            power.VF{MHz: mhz, Volts: volts},
			ThresholdMbps: float64(int(topThresholdMbps * mhz / 600)),
		})
	}
	return l, nil
}

// MustLadder is NewLadder for statically known-good thresholds.
func MustLadder(top float64) Ladder {
	l, err := NewLadder(top)
	if err != nil {
		panic(err)
	}
	return l
}

// Levels returns the rung count.
func (l Ladder) Levels() int { return len(l.Steps) }

// Clamp forces a level into range.
func (l Ladder) Clamp(level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(l.Steps) {
		return len(l.Steps) - 1
	}
	return level
}

// String renders the ladder as the paper's Figure 5 table.
func (l Ladder) String() string {
	out := "Frequency(MHz)"
	for _, s := range l.Steps {
		out += fmt.Sprintf("\t%g", s.VF.MHz)
	}
	out += "\nVoltage(V)"
	for _, s := range l.Steps {
		out += fmt.Sprintf("\t%g", s.VF.Volts)
	}
	out += "\nThreshold(Mbps)"
	for _, s := range l.Steps {
		out += fmt.Sprintf("\t%g", s.ThresholdMbps)
	}
	return out + "\n"
}

// OracleLevel returns the rung a perfect predictor picks for a window
// volume: the deepest rung such that every shallower rung's threshold
// exceeds the volume (the fixed point TDVS oscillates around).
func OracleLevel(l Ladder, volumeMbps float64) int {
	level := 0
	for _, s := range l.Steps {
		if s.ThresholdMbps > volumeMbps {
			level++
		}
	}
	return l.Clamp(level)
}

// WindowVolumes computes per-window offered load (Mbps) from packet
// arrival times and bit counts; it is the oracle's lookahead schedule.
func WindowVolumes(arrivals []sim.Time, bits []uint64, window sim.Time, total sim.Time) ([]float64, error) {
	if len(arrivals) != len(bits) {
		return nil, fmt.Errorf("policy: %d arrivals vs %d bit counts", len(arrivals), len(bits))
	}
	if window <= 0 || total <= 0 {
		return nil, fmt.Errorf("policy: non-positive window %v or total %v", window, total)
	}
	n := int(total/window) + 1
	vols := make([]float64, n)
	for i, at := range arrivals {
		if at < 0 || at >= total {
			continue
		}
		vols[int(at/window)] += float64(bits[i])
	}
	sec := window.Seconds()
	for i := range vols {
		vols[i] = vols[i] / sec / 1e6
	}
	return vols, nil
}
