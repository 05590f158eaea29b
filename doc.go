// Package nepdvs reproduces "Assertion-Based Design Exploration of DVS in
// Network Processor Architectures" (Yu, Wu, Chen, Hsieh, Yang, Balarin;
// DATE 2005): an IXP1200-class network-processor simulator with an
// activity-based power model, traffic-based and execution-based dynamic
// voltage scaling policies, and a Logic of Constraints (LOC) assertion
// language whose automatically generated checkers and distribution
// analyzers drive the design-space exploration.
//
// The implementation lives under internal/:
//
//	internal/sim          discrete-event kernel (ps resolution, deterministic)
//	internal/isa          microengine ISA and two-pass assembler
//	internal/npu          the NPU model: 6×4-context MEs, SRAM/SDRAM, IX bus,
//	                      ports, FIFOs, per-ME DVS with transition penalties
//	internal/power        C·V²·f energy accounting
//	internal/policy       the VF ladder, one window loop and the TDVS / EDVS /
//	                      combined / oracle / PID / PSM decide steps
//	internal/traffic      synthetic edge-router traffic (diurnal + MMPP)
//	internal/workload     ipfwdr, url, nat, md4 in microengine assembly
//	internal/trace        event traces (text + binary), streaming sinks
//	internal/loc          the LOC language: parser, compiler, streaming
//	                      checker/analyzer, standalone-checker codegen
//	internal/stats        histograms, CDFs, quantiles, surfaces
//	internal/core         run/sweep engine tying everything together
//	internal/experiments  one runner per paper table/figure + ablations
//
// The benchmarks in bench_test.go regenerate each paper artifact; the
// executables under cmd/ expose the same functionality on the command line,
// and examples/ holds runnable walkthroughs. See README.md, DESIGN.md and
// EXPERIMENTS.md.
package nepdvs
