package isa

import (
	"fmt"
	"strings"

	"nepdvs/internal/lint/diag"
)

// Static analysis of assembled programs — the ISA front of nepvet. The
// assembler already rejects malformed source (unknown mnemonics, bad
// operands, duplicate and undefined labels); Lint analyzes the *assembled*
// program for the bugs that assemble fine and then burn a sweep: dead code
// after unconditional branches, registers read before any write, branch
// targets outside the control store.

// Lint rule IDs.
const (
	LintParse       = "asm/parse"           // source did not assemble
	LintDupLabel    = "asm/dup-label"       // duplicate label definition
	LintUndefLabel  = "asm/undef-label"     // branch to an undefined label
	LintUnreachable = "asm/unreachable"     // instructions control flow can never reach
	LintUninitRead  = "asm/uninit-read"     // register read before any write on some path
	LintBranchRange = "asm/branch-range"    // branch target outside the program
	LintCStore      = "asm/cstore-overflow" // program exceeds the ME control store
)

// ControlStoreSize is the per-microengine control store capacity in
// instructions (the IXP1200's 1K-instruction microstore).
const ControlStoreSize = 1024

// finding builds one ISA lint finding. line is the 1-based source line when
// the program carries line provenance (programs built by Assemble do), or
// zero for hand-constructed programs; assembly findings have no column, so
// they point at the start of the line.
func finding(line int, rule, msg string) diag.Diag {
	return diag.Diag{Line: line, Col: 1, Rule: rule, Msg: msg}
}

// LintSource assembles src and lints the result. Assembly failures are
// reported as diagnostics (classified as duplicate-label, undefined-label
// or general parse errors) rather than returned as errors, so callers get
// one uniform findings stream.
func LintSource(name, src string) []diag.Diag {
	p, err := Assemble(name, src)
	if err != nil {
		d := finding(0, LintParse, err.Error())
		if ae, ok := err.(*AsmError); ok {
			d.Line = ae.Line
			d.Msg = ae.Msg
			switch {
			case strings.HasPrefix(ae.Msg, "duplicate label"):
				d.Rule = LintDupLabel
			case strings.HasPrefix(ae.Msg, "undefined label"):
				d.Rule = LintUndefLabel
			}
		}
		return []diag.Diag{d}
	}
	return Lint(p)
}

// Lint analyzes an assembled program and returns its findings in program
// order.
func Lint(p *Program) []diag.Diag {
	var diags []diag.Diag
	line := func(i int) int {
		if i >= 0 && i < len(p.Lines) {
			return p.Lines[i]
		}
		return 0
	}

	if len(p.Code) > ControlStoreSize {
		diags = append(diags, finding(line(ControlStoreSize), LintCStore,
			fmt.Sprintf("program %q has %d instructions; the ME control store holds %d", p.Name, len(p.Code), ControlStoreSize)))
	}

	// Branch-range violations make the CFG unusable at those nodes, so
	// collect them first and treat such branches as halting for the
	// reachability and dataflow passes.
	badTarget := make([]bool, len(p.Code))
	for i, in := range p.Code {
		if !in.Op.IsBranch() {
			continue
		}
		if in.Target < 0 || int(in.Target) >= len(p.Code) {
			badTarget[i] = true
			diags = append(diags, finding(line(i), LintBranchRange,
				fmt.Sprintf("branch target @%d outside program of %d instructions", in.Target, len(p.Code))))
		}
	}

	reach := reachable(p, badTarget)
	for start := 0; start < len(p.Code); {
		if reach[start] {
			start++
			continue
		}
		end := start
		for end+1 < len(p.Code) && !reach[end+1] {
			end++
		}
		msg := fmt.Sprintf("instruction %d (%s) is unreachable", start, p.Code[start])
		if end > start {
			msg = fmt.Sprintf("instructions %d..%d are unreachable (first: %s)", start, end, p.Code[start])
		}
		diags = append(diags, finding(line(start), LintUnreachable, msg))
		start = end + 1
	}

	diags = append(diags, lintUninitReads(p, badTarget, reach, line)...)

	// Report in program order (line, then rule) for stable golden output.
	diag.Sort(diags)
	return diags
}

// reachable computes instruction reachability from entry. Branches with
// out-of-range targets contribute no edges.
func reachable(p *Program, badTarget []bool) []bool {
	reach := make([]bool, len(p.Code))
	if len(p.Code) == 0 {
		return reach
	}
	stack := []int{0}
	reach[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs(p, i, badTarget) {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	return reach
}

func succs(p *Program, i int, badTarget []bool) []int {
	in := p.Code[i]
	var out []int
	switch {
	case in.Op == OpHalt:
	case in.Op == OpBr:
		if !badTarget[i] {
			out = append(out, int(in.Target))
		}
	case in.Op.IsBranch():
		if i+1 < len(p.Code) {
			out = append(out, i+1)
		}
		if !badTarget[i] {
			out = append(out, int(in.Target))
		}
	default:
		if i+1 < len(p.Code) {
			out = append(out, i+1)
		}
	}
	return out
}

// regMask is a bit set over the NumRegs general-purpose registers.
type regMask uint16

// lintUninitReads runs a forward must-write dataflow analysis: a register
// is definitely-written at instruction i only if it is written on every
// path from entry to i. Reads of registers outside that set are flagged —
// the model zeroes registers at reset, so such reads are deterministic but
// almost always a missing "imm rN, 0" or a typo'd register number.
func lintUninitReads(p *Program, badTarget, reach []bool, line func(int) int) []diag.Diag {
	n := len(p.Code)
	const all = regMask(1<<NumRegs - 1)
	in := make([]regMask, n)
	for i := range in {
		in[i] = all // top; entry is lowered below
	}
	if n == 0 {
		return nil
	}
	in[0] = 0
	// Iterate to fixpoint. Programs are control-store sized, so a simple
	// round-robin sweep converges quickly.
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !reach[i] {
				continue
			}
			out := in[i] | writeMask(p.Code[i])
			for _, s := range succs(p, i, badTarget) {
				if nv := in[s] & out; nv != in[s] {
					in[s] = nv
					changed = true
				}
			}
		}
	}
	var diags []diag.Diag
	seen := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		if !reach[i] {
			continue
		}
		for _, r := range readRegs(p.Code[i]) {
			if in[i]&(1<<r) != 0 {
				continue
			}
			key := [2]int{i, int(r)}
			if seen[key] {
				continue
			}
			seen[key] = true
			diags = append(diags, finding(line(i), LintUninitRead,
				fmt.Sprintf("instruction %d (%s) reads r%d before any write reaches it", i, p.Code[i], r)))
		}
	}
	return diags
}

func writeMask(in Instr) regMask {
	if strings.ContainsRune(opInfo[in.Op].sig, 'd') {
		return 1 << in.Rd
	}
	return 0
}

func readRegs(in Instr) []uint8 {
	var out []uint8
	for _, c := range opInfo[in.Op].sig {
		switch c {
		case 'a':
			out = append(out, in.Ra)
		case 'b':
			out = append(out, in.Rb)
		}
	}
	return out
}
