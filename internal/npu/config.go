// Package npu models the network processor architecture the paper explores:
// an Intel IXP1200-class chip in the style of the NePSim simulator, with six
// four-context microengines, SRAM and banked-SDRAM controllers, an IX bus
// feeding receive FIFOs from sixteen device ports, transmit FIFOs, a
// scratchpad with a transmit ring, and an activity-based power meter.
//
// The model is event-driven at instruction-batch granularity: ALU-only
// stretches of microcode execute in one event, while every memory reference
// blocks its hardware context and is served by the target controller's
// queueing model, exactly the mechanism that produces the microengine idle
// time the paper's EDVS policy feeds on. Microengines poll their input
// queues in software when no packets are available — so low traffic does
// NOT produce idle time, matching the paper's §4.2 observation that idleness
// comes from memory latency, not load.
//
// Voltage/frequency scaling is exposed per microengine (SetMEVF) and
// chip-wide (SetAllVF); each transition stalls the affected engines for the
// configured penalty (10 µs in the paper). DVS policies live in package
// policy and drive the chip through these methods.
package npu

import (
	"fmt"

	"nepdvs/internal/power"
	"nepdvs/internal/sim"
)

// Config parameterizes the chip, mirroring NePSim's parameterizable model.
// The zero value is not valid; start from DefaultConfig.
type Config struct {
	// NumMEs is the microengine count (IXP1200: 6).
	NumMEs int
	// NumCtx is the hardware contexts per ME (IXP1200: 4).
	NumCtx int
	// RxMEs is how many MEs run the receive/processing microcode; the
	// remaining MEs run the transmit microcode.
	RxMEs int
	// MEVF is the initial (and maximum) ME operating point.
	MEVF power.VF
	// RefMHz defines the reference clock for the trace "cycle" annotation
	// and for window sizes expressed in cycles (600 MHz in the paper).
	RefMHz float64

	// Ports is the device port count (IXP1200: 16).
	Ports int
	// PortMbps is the per-port media rate. The paper scales the IXP1200's
	// buses and memories to 1.3× to match the raised ME frequency:
	// 100 Mbps ports become 130 Mbps.
	PortMbps float64
	// BusGbps is the IX bus bandwidth in Gbit/s (64 bit × 104 MHz × 1.3).
	BusGbps float64
	// RFIFODepth is the receive FIFO capacity in packets; overflow drops.
	RFIFODepth int
	// TFIFODepth is the per-port transmit FIFO capacity in packets.
	TFIFODepth int
	// TxRingDepth is the scratch transmit-ring capacity in handles.
	TxRingDepth int

	// SramMHz / SdramMHz are controller clocks (IXP1200 × 1.3).
	SramMHz, SdramMHz float64
	// SramPipeNs is the fixed SRAM pipeline latency in nanoseconds.
	SramPipeNs float64
	// SramWordNs is the additional per-word SRAM burst time.
	SramWordNs float64
	// SdramBanks is the SDRAM bank count.
	SdramBanks int
	// SdramRowNs is the row activate+precharge time charged on a row miss.
	SdramRowNs float64
	// SdramWordNs is the per-word SDRAM burst time.
	SdramWordNs float64
	// ScratchNs is the scratchpad access latency.
	ScratchNs float64
	// CsrNs is the CSR access latency.
	CsrNs float64

	// DVSPenalty is the stall applied to an ME on a VF transition
	// (10 µs in the paper, ≈6000 cycles at 600 MHz).
	DVSPenalty sim.Time

	// Power is the energy model parameter set.
	Power power.Params
	// MonitorOverhead charges the TDVS traffic-monitor adder per packet
	// arrival; enabled when a TDVS policy is attached.
	MonitorOverhead bool

	// EmitPipeline enables per-instruction-batch pipeline events in the
	// trace (very large traces; off by default as in our experiments).
	EmitPipeline bool
	// IdleSampleWindow, when positive, emits per-ME "idle" events with an
	// idle_frac annotation every window — the input to the paper's §4.2
	// idle-time distribution study.
	IdleSampleWindow sim.Time

	// BatchCycles caps how many ME cycles execute per simulation event;
	// purely a performance/granularity knob.
	BatchCycles int64
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{
		NumMEs:      6,
		NumCtx:      4,
		RxMEs:       4,
		MEVF:        power.RefVF,
		RefMHz:      600,
		Ports:       16,
		PortMbps:    130,
		BusGbps:     8.6,
		RFIFODepth:  64,
		TFIFODepth:  4,
		TxRingDepth: 64,
		SramMHz:     300,
		SdramMHz:    147,
		SramPipeNs:  25,
		SramWordNs:  6.7,
		SdramBanks:  4,
		SdramRowNs:  65,
		SdramWordNs: 16.5,
		ScratchNs:   20,
		CsrNs:       15,
		DVSPenalty:  10 * sim.Microsecond,
		Power:       power.DefaultParams(),
		BatchCycles: 256,
	}
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case c.NumMEs < 1:
		return fmt.Errorf("npu: need at least one ME, got %d", c.NumMEs)
	case c.NumCtx < 1 || c.NumCtx > 8:
		return fmt.Errorf("npu: contexts per ME must be 1..8, got %d", c.NumCtx)
	case c.RxMEs < 1 || c.RxMEs >= c.NumMEs:
		return fmt.Errorf("npu: RxMEs must be in [1, NumMEs), got %d of %d", c.RxMEs, c.NumMEs)
	case c.MEVF.MHz <= 0 || c.MEVF.Volts <= 0:
		return fmt.Errorf("npu: bad ME operating point %v", c.MEVF)
	case c.RefMHz <= 0:
		return fmt.Errorf("npu: bad reference clock %v MHz", c.RefMHz)
	case c.Ports < 1:
		return fmt.Errorf("npu: need at least one port, got %d", c.Ports)
	case c.PortMbps <= 0 || c.BusGbps <= 0:
		return fmt.Errorf("npu: non-positive port (%v Mbps) or bus (%v Gbps) rate", c.PortMbps, c.BusGbps)
	case c.RFIFODepth < 1 || c.TFIFODepth < 1 || c.TxRingDepth < 1:
		return fmt.Errorf("npu: FIFO depths must be positive (rfifo %d, tfifo %d, txring %d)",
			c.RFIFODepth, c.TFIFODepth, c.TxRingDepth)
	case c.SramMHz <= 0 || c.SdramMHz <= 0:
		return fmt.Errorf("npu: non-positive memory clocks")
	case c.SdramBanks < 1:
		return fmt.Errorf("npu: need at least one SDRAM bank")
	case c.SramPipeNs < 0 || c.SramWordNs < 0 || c.SdramRowNs < 0 || c.SdramWordNs < 0 || c.ScratchNs < 0 || c.CsrNs < 0:
		return fmt.Errorf("npu: negative memory latency")
	case c.DVSPenalty < 0:
		return fmt.Errorf("npu: negative DVS penalty %v", c.DVSPenalty)
	case c.BatchCycles < 1:
		return fmt.Errorf("npu: BatchCycles must be positive, got %d", c.BatchCycles)
	}
	return c.Power.Validate()
}
