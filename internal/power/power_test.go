package power

import (
	"math"
	"testing"
)

func TestVFScaling(t *testing.T) {
	if got := RefVF.EnergyScale(); got != 1 {
		t.Errorf("reference EnergyScale = %v", got)
	}
	low := VF{MHz: 400, Volts: 1.1}
	es := low.EnergyScale()
	if math.Abs(es-(1.1/1.3)*(1.1/1.3)) > 1e-12 {
		t.Errorf("EnergyScale(400/1.1) = %v", es)
	}
	// The paper's headline: bottom of the ladder is roughly half power,
	// (V/Vref)²·(f/fref).
	ps := es * low.MHz / RefVF.MHz
	if ps < 0.45 || ps > 0.52 {
		t.Errorf("bottom-of-ladder power scale = %v, want ~0.48", ps)
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.SramWord = -1
	if err := p.Validate(); err == nil {
		t.Error("negative energy accepted")
	}
	p = DefaultParams()
	p.MEInstr = 0
	if err := p.Validate(); err == nil {
		t.Error("zero MEInstr accepted")
	}
	if _, err := NewMeter(p); err == nil {
		t.Error("NewMeter accepted invalid params")
	}
}

// TestCalibration checks the headline calibration: six MEs running flat out
// at the reference point, with a representative memory mix, land near 1.5 W.
func TestCalibration(t *testing.T) {
	m, err := NewMeter(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const us = 1000.0 // simulate 1 ms
	instrPerME := int64(600 * us)
	for me := 0; me < 6; me++ {
		m.Instr(instrPerME, RefVF)
	}
	// Memory traffic of an ipfwdr-like mix at ~1 Gbps: ~250k packets/s,
	// ~6 SRAM + 16 SDRAM + 2 scratch words per packet.
	pkts := int64(0.25 * us)
	m.Sram(6 * pkts)
	m.Sdram(16 * pkts)
	m.Scratch(2 * pkts)
	m.Base(us)
	watts := m.Total() / us
	if watts < 1.2 || watts > 1.8 {
		t.Fatalf("busy reference power = %.3f W, want ~1.5", watts)
	}
}

func TestVoltageScalingReducesEnergy(t *testing.T) {
	m, _ := NewMeter(DefaultParams())
	m.Instr(1000, RefVF)
	high := m.Total()
	m2, _ := NewMeter(DefaultParams())
	m2.Instr(1000, VF{MHz: 400, Volts: 1.1})
	low := m2.Total()
	if low >= high {
		t.Fatalf("low-voltage energy %v >= reference %v", low, high)
	}
	if math.Abs(low/high-(1.1/1.3)*(1.1/1.3)) > 1e-9 {
		t.Fatalf("scaling ratio = %v", low/high)
	}
}

func TestIdleCheaperThanBusy(t *testing.T) {
	p := DefaultParams()
	if p.MEIdleCycle >= p.MEInstr {
		t.Fatal("idle cycle should cost less than an instruction")
	}
	if p.MEStallCycle >= p.MEIdleCycle {
		t.Fatal("stalled (clock-gated) cycle should cost less than idle")
	}
}

func TestMonitorFraction(t *testing.T) {
	m, _ := NewMeter(DefaultParams())
	if m.MonitorFraction() != 0 {
		t.Error("empty meter monitor fraction should be 0")
	}
	// Realistic ratio: hundreds of instructions per packet.
	for k := 0; k < 1000; k++ {
		m.Instr(300, RefVF)
		m.Monitor()
	}
	if f := m.MonitorFraction(); f <= 0 || f >= 0.01 {
		t.Errorf("monitor fraction = %v, want (0, 1%%)", f)
	}
}

func TestVFString(t *testing.T) {
	if got := RefVF.String(); got != "600MHz/1.3V" {
		t.Errorf("String = %q", got)
	}
}
