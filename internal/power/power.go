// Package power implements the activity-based energy estimator attached to
// the NPU model, in the spirit of NePSim's power evaluation framework.
//
// Dynamic energy per operation scales with the square of supply voltage
// (E = C·V²), and power additionally with frequency (P = C·V²·α·f), which is
// exactly the knob DVS turns: stepping an ME from 600 MHz/1.3 V down to
// 400 MHz/1.1 V cuts its dynamic power to (1.1/1.3)²·(400/600) ≈ 48%.
// Memory controllers and buses sit in fixed-voltage domains (the paper
// scales only the MEs), so their per-access energies are constant.
//
// The calibration targets NePSim's reported operating range for the
// six-microengine complex: ≈1.5 W busy at the reference point, matching the
// x-axis ranges of the paper's Figures 6, 10 and 11.
package power

import "fmt"

// VF is a voltage/frequency operating point.
type VF struct {
	MHz   float64
	Volts float64
}

func (v VF) String() string { return fmt.Sprintf("%gMHz/%gV", v.MHz, v.Volts) }

// RefVF is the IXP1200-derived reference operating point used for
// calibration (the paper's upper DVS bound).
var RefVF = VF{MHz: 600, Volts: 1.3}

// EnergyScale returns the dynamic-energy scale factor of operating point v
// relative to the reference: (V/Vref)².
func (v VF) EnergyScale() float64 {
	r := v.Volts / RefVF.Volts
	return r * r
}

// Params holds per-activity energies at the reference point, in microjoules.
type Params struct {
	// MEInstr is the energy of one microengine instruction issue.
	MEInstr float64
	// MEIdleCycle is the clock-tree/leakage energy an idle ME burns per
	// cycle (all contexts blocked; clocks still toggling).
	MEIdleCycle float64
	// MEStallCycle is the energy per cycle while stalled for a DVS
	// transition (PLL relock; clocks gated, lower than idle).
	MEStallCycle float64
	// MESleepCycle is the energy per cycle while an ME sits in a DPM
	// sleep state (clocks gated, state retained; below stall). Deep sleep
	// charges nothing — state is flushed and the domain power-gated.
	MESleepCycle float64
	// SramWord / SdramWord / ScratchWord are per-word access energies in
	// the fixed-voltage memory domains.
	SramWord    float64
	SdramWord   float64
	ScratchWord float64
	// MonitorUpdate is the TDVS traffic-monitor 32-bit adder energy per
	// packet arrival (the paper's <1% overhead).
	MonitorUpdate float64
	// BasePower is constant infrastructure power in watts (PLLs, pads,
	// StrongARM idle) charged continuously.
	BasePower float64
}

// DefaultParams is calibrated so that six busy MEs at the reference point
// dissipate ≈1.5 W total with a realistic memory mix (the noDVS curves of
// the paper's Figure 11 sit between 1.4 and 1.6 W).
func DefaultParams() Params {
	return Params{
		// 6 MEs × 600 Minstr/s × MEInstr µJ ≈ 1.26 W of ME dynamic power
		// when fully busy; memory and base power make up the rest.
		MEInstr:      4.3e-4,
		MEIdleCycle:  1.3e-4, // ~30% of an instruction's energy
		MEStallCycle: 0.43e-4,
		MESleepCycle: 0.13e-4, // ~10% of idle: retention only

		SramWord:      1.2e-3,
		SdramWord:     2.1e-3,
		ScratchWord:   0.4e-3,
		MonitorUpdate: 1.0e-5,
		BasePower:     0.10,
	}
}

// Validate rejects physically meaningless parameter sets.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MEInstr", p.MEInstr}, {"MEIdleCycle", p.MEIdleCycle}, {"MEStallCycle", p.MEStallCycle},
		{"MESleepCycle", p.MESleepCycle},
		{"SramWord", p.SramWord}, {"SdramWord", p.SdramWord}, {"ScratchWord", p.ScratchWord},
		{"MonitorUpdate", p.MonitorUpdate}, {"BasePower", p.BasePower},
	} {
		if f.v < 0 {
			return fmt.Errorf("power: negative %s: %v", f.name, f.v)
		}
	}
	if p.MEInstr == 0 {
		return fmt.Errorf("power: MEInstr must be positive")
	}
	return nil
}

// Meter accumulates energy. The zero value of Meter is invalid; use
// NewMeter.
type Meter struct {
	params Params
	// Per-category cumulative microjoules.
	meDynamic float64
	meStall   float64
	meSleep   float64
	sram      float64
	sdram     float64
	scratch   float64
	monitor   float64
	base      float64
}

// NewMeter builds a meter after validating the parameters.
func NewMeter(p Params) (*Meter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Meter{params: p}, nil
}

// Instr charges n instruction issues on an ME at operating point vf.
func (m *Meter) Instr(n int64, vf VF) {
	m.meDynamic += float64(n) * m.params.MEInstr * vf.EnergyScale()
}

// StallCycles charges n DVS-transition stall cycles at operating point vf.
func (m *Meter) StallCycles(n int64, vf VF) {
	m.meStall += float64(n) * m.params.MEStallCycle * vf.EnergyScale()
}

// SleepCycles charges n DPM sleep-state cycles at operating point vf.
// Deep-sleep residency is free (power-gated) and is not charged here.
func (m *Meter) SleepCycles(n int64, vf VF) {
	m.meSleep += float64(n) * m.params.MESleepCycle * vf.EnergyScale()
}

// Sram charges an n-word SRAM access.
func (m *Meter) Sram(n int64) { m.sram += float64(n) * m.params.SramWord }

// Sdram charges an n-word SDRAM access.
func (m *Meter) Sdram(n int64) { m.sdram += float64(n) * m.params.SdramWord }

// Scratch charges an n-word scratchpad access.
func (m *Meter) Scratch(n int64) { m.scratch += float64(n) * m.params.ScratchWord }

// Monitor charges one TDVS traffic-monitor update.
func (m *Meter) Monitor() { m.monitor += m.params.MonitorUpdate }

// Base charges infrastructure power for a duration in microseconds.
func (m *Meter) Base(us float64) { m.base += m.params.BasePower * us }

// Total returns cumulative energy in microjoules.
func (m *Meter) Total() float64 {
	return m.meDynamic + m.meStall + m.meSleep + m.sram + m.sdram + m.scratch + m.monitor + m.base
}

// MonitorFraction returns the share of total energy charged to the TDVS
// monitor; the paper reports this must stay under 1%.
func (m *Meter) MonitorFraction() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return m.monitor / t
}
