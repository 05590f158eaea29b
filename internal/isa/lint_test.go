package isa

import (
	"strings"
	"testing"

	"nepdvs/internal/lint/diag"
)

func lintStrings(ds []diag.Diag) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

func TestLintCleanProgram(t *testing.T) {
	if ds := LintSource("sample", sampleProgram); len(ds) != 0 {
		t.Fatalf("clean program has findings:\n%s", strings.Join(lintStrings(ds), "\n"))
	}
}

func TestLintUnreachable(t *testing.T) {
	// One dead instruction after an unconditional branch.
	ds := LintSource("dead", "imm r1, 0\nbr out\nnop\nout: halt\n")
	if len(ds) != 1 || ds[0].Rule != LintUnreachable || ds[0].Line != 3 {
		t.Fatalf("diags = %v, want one asm/unreachable at line 3", ds)
	}
	if !strings.Contains(ds[0].Msg, "instruction 2") {
		t.Errorf("msg = %q, want it to name instruction 2", ds[0].Msg)
	}

	// A run of dead instructions is reported once, as a range.
	ds = LintSource("deadrun", "br out\nnop\nnop\nnop\nout: halt\n")
	if len(ds) != 1 || !strings.Contains(ds[0].Msg, "instructions 1..3") {
		t.Fatalf("diags = %v, want one grouped asm/unreachable for 1..3", ds)
	}

	// Code after halt is dead too.
	ds = LintSource("posthalt", "halt\nnop\n")
	if len(ds) != 1 || ds[0].Rule != LintUnreachable {
		t.Fatalf("diags = %v, want asm/unreachable after halt", ds)
	}

	// A conditional branch keeps the fallthrough alive.
	if ds := LintSource("cond", "imm r1, 0\nimm r2, 1\nbeq r1, r2, out\nnop\nout: halt\n"); len(ds) != 0 {
		t.Fatalf("fallthrough after beq flagged: %v", ds)
	}
}

func TestLintUninitRead(t *testing.T) {
	// r2 is read with no write anywhere.
	ds := LintSource("raw", "imm r1, 1\nadd r3, r1, r2\nhalt\n")
	if len(ds) != 1 || ds[0].Rule != LintUninitRead || ds[0].Line != 2 {
		t.Fatalf("diags = %v, want one asm/uninit-read at line 2", ds)
	}
	if !strings.Contains(ds[0].Msg, "reads r2") {
		t.Errorf("msg = %q, want it to name r2", ds[0].Msg)
	}

	// Must-write is a meet over paths: r1 written on only one arm of a
	// diamond is not definitely written at the join.
	src := `imm r2, 0
imm r3, 1
beq r2, r3, skip
imm r1, 7
skip:
mov r4, r1
halt
`
	ds = LintSource("diamond", src)
	if len(ds) != 1 || ds[0].Rule != LintUninitRead || !strings.Contains(ds[0].Msg, "reads r1") {
		t.Fatalf("diags = %v, want asm/uninit-read for r1 at the join", ds)
	}

	// Written on both arms: clean.
	both := `imm r2, 0
imm r3, 1
beq r2, r3, other
imm r1, 7
br join
other:
imm r1, 9
join:
mov r4, r1
halt
`
	if ds := LintSource("both", both); len(ds) != 0 {
		t.Fatalf("both-arms write flagged: %v", ds)
	}

	// A loop whose write reaches the back edge is clean: the rolling
	// accumulator pattern used by the workloads.
	loop := `imm r1, 0
top:
addi r1, r1, 1
imm r2, 10
blt r1, r2, top
halt
`
	if ds := LintSource("loop", loop); len(ds) != 0 {
		t.Fatalf("seeded loop accumulator flagged: %v", ds)
	}
}

func TestLintBranchRange(t *testing.T) {
	// The assembler rejects out-of-range labels, so build the program by
	// hand as npu tests do.
	p := &Program{Name: "hand", Code: []Instr{
		{Op: OpImm, Rd: 1, Imm: 0},
		{Op: OpBr, Target: 99},
		{Op: OpHalt},
	}}
	ds := Lint(p)
	var rules []string
	for _, d := range ds {
		rules = append(rules, d.Rule)
	}
	// The bad branch contributes no CFG edge, so the halt behind it is dead.
	want := []string{LintBranchRange, LintUnreachable}
	if len(rules) != 2 || rules[0] != want[0] || rules[1] != want[1] {
		t.Fatalf("rules = %v, want %v\n%s", rules, want, strings.Join(lintStrings(ds), "\n"))
	}
	// Hand-built programs carry no line provenance.
	if ds[0].Line != 0 {
		t.Errorf("hand-built diag line = %d, want 0", ds[0].Line)
	}
}

func TestLintControlStoreOverflow(t *testing.T) {
	p := &Program{Name: "big"}
	for i := 0; i < ControlStoreSize+1; i++ {
		p.Code = append(p.Code, Instr{Op: OpNop})
	}
	p.Code = append(p.Code, Instr{Op: OpHalt})
	ds := Lint(p)
	found := false
	for _, d := range ds {
		if d.Rule == LintCStore && strings.Contains(d.Msg, "1026 instructions") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no asm/cstore-overflow in %v", lintStrings(ds))
	}
}

func TestLintSourceClassifiesAsmErrors(t *testing.T) {
	cases := []struct {
		name, src, rule string
		line            int
	}{
		{"dup", "x: nop\nx: halt\n", LintDupLabel, 2},
		{"undef", "br nowhere\nhalt\n", LintUndefLabel, 1},
		{"parse", "nop\nbogus r1\n", LintParse, 2},
	}
	for _, c := range cases {
		ds := LintSource(c.name, c.src)
		if len(ds) != 1 {
			t.Errorf("%s: diags = %v, want exactly 1", c.name, ds)
			continue
		}
		if ds[0].Rule != c.rule || ds[0].Line != c.line {
			t.Errorf("%s: got %s, want rule %s at line %d", c.name, ds[0], c.rule, c.line)
		}
	}
	// Non-AsmError failures (label past end) still come back as asm/parse.
	ds := LintSource("pastend", "nop\nend:")
	if len(ds) != 1 || ds[0].Rule != LintParse {
		t.Fatalf("diags = %v, want one asm/parse", ds)
	}
}

func TestAssembleLineProvenance(t *testing.T) {
	p := MustAssemble("lines", "\nnop\n\nstart:\n  imm r1, 0\n  halt\n")
	want := []int{2, 5, 6}
	if len(p.Lines) != len(want) {
		t.Fatalf("Lines = %v, want %v", p.Lines, want)
	}
	for i := range want {
		if p.Lines[i] != want[i] {
			t.Fatalf("Lines = %v, want %v", p.Lines, want)
		}
	}
}

// FuzzAsmLint feeds arbitrary source through assemble+lint: the pipeline
// must never panic, and diagnostics must be ordered and well-formed.
func FuzzAsmLint(f *testing.F) {
	f.Add(sampleProgram)
	f.Add("br out\nnop\nout: halt\n")
	f.Add("imm r1, 1\nadd r3, r1, r2\nhalt\n")
	f.Add("x: nop\nx: halt\n")
	f.Add("br nowhere\n")
	f.Add(":::\n\x00")
	f.Fuzz(func(t *testing.T, src string) {
		ds := LintSource("fuzz", src)
		for i, d := range ds {
			if d.Rule == "" || d.Msg == "" {
				t.Fatalf("malformed diag %+v", d)
			}
			if i > 0 && ds[i-1].Line > d.Line {
				t.Fatalf("diags out of order: %v", ds)
			}
		}
	})
}
