package isa

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

const sampleProgram = `
; count packets and stash their sizes in scratch
start:
	imm   r1, 0          # counter
	imm   r2, 0x100      # scratch base
loop:
	rx.pop r3
	imm   r4, -1
	beq   r3, r4, loop   ; poll until a packet arrives
	pkt.f r5, r3, size
	scr.w r2, r5
	addi  r2, r2, 1
	addi  r1, r1, 1
	tx.push r6, r3
	imm   r7, 100
	blt   r1, r7, loop
	halt
`

func TestAssembleSample(t *testing.T) {
	p, err := Assemble("sample", sampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 13 {
		t.Fatalf("assembled %d instructions, want 13", len(p.Code))
	}
	if p.Labels["start"] != 0 || p.Labels["loop"] != 2 {
		t.Fatalf("labels = %v", p.Labels)
	}
	// The beq at index 4 must target loop (2).
	if p.Code[4].Op != OpBeq || p.Code[4].Target != 2 {
		t.Fatalf("beq = %+v", p.Code[4])
	}
	// Negative and hex immediates.
	if p.Code[1].Imm != 0x100 || p.Code[3].Imm != -1 {
		t.Fatalf("immediates: %+v %+v", p.Code[1], p.Code[3])
	}
	// pkt.f field encoding.
	if p.Code[5].Op != OpPktF || PktField(p.Code[5].Imm) != FieldSize {
		t.Fatalf("pkt.f = %+v", p.Code[5])
	}
}

func TestAssembleForwardReference(t *testing.T) {
	p, err := Assemble("fwd", "br end\nnop\nend: halt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Target != 2 {
		t.Fatalf("forward branch target = %d", p.Code[0].Target)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"bogus r1", "unknown mnemonic"},
		{"add r1, r2", "takes 3 operands"},
		{"add r1, r2, r3, r4", "takes 3 operands"},
		{"imm r99, 5", "register"},
		{"imm rx, 5", "register"},
		{"imm r1, banana", "immediate"},
		{"br 123abc", "bad branch target"},
		{"br nowhere\nhalt", "undefined label"},
		{"x: nop\nx: halt", "duplicate label"},
		{"pkt.f r1, r2, banana", "unknown packet field"},
		{"mov r1", "takes 2 operands"},
		{"sram.w r1, r2", "takes 3 operands"},
		{"imm r-1, 5", "register"},
		{"add r1, r2, 99", "register"},
		{"", "empty program"},
		{"dangling:\n", "empty program"},
		{"nop\nend:", "points past the end"},
	}
	for _, c := range cases {
		_, err := Assemble("t", c.src)
		if err == nil {
			t.Errorf("Assemble(%q): expected error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q): error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestAssembleCommentStyles(t *testing.T) {
	p, err := Assemble("c", "nop ; semicolon\nnop # hash\nnop // slashes\n# full line\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 4 {
		t.Fatalf("got %d instructions, want 4", len(p.Code))
	}
}

func TestAssembleLineNumbersInErrors(t *testing.T) {
	_, err := Assemble("t", "nop\nnop\nbogus op\n")
	ae, ok := err.(*AsmError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ae.Line != 3 {
		t.Fatalf("error line = %d, want 3", ae.Line)
	}
}

func TestOpClassification(t *testing.T) {
	if !OpBeq.IsBranch() || OpAdd.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if OpMul.Cycles() != 3 || OpHash.Cycles() != 5 || OpAdd.Cycles() != 1 {
		t.Error("Cycles table wrong")
	}
}

func TestDisasmRoundTrip(t *testing.T) {
	p := MustAssemble("sample", sampleProgram)
	dis := disasm(p)
	p2, err := Assemble("sample2", dis)
	if err != nil {
		t.Fatalf("disassembly does not re-assemble: %v\n%s", err, dis)
	}
	if len(p2.Code) != len(p.Code) {
		t.Fatalf("round trip length %d != %d", len(p2.Code), len(p.Code))
	}
	for k := range p.Code {
		a, b := p.Code[k], p2.Code[k]
		if a.Op != b.Op || a.Rd != b.Rd || a.Ra != b.Ra || a.Rb != b.Rb || a.Imm != b.Imm || a.Target != b.Target {
			t.Fatalf("instruction %d: %+v != %+v", k, a, b)
		}
	}
}

// Property: every opcode with any operand combination renders to text that
// re-assembles to the identical instruction.
func TestInstrStringRoundTripProperty(t *testing.T) {
	ops := make([]Op, 0, len(opInfo))
	for op := range opInfo {
		ops = append(ops, op)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		op := ops[rng.Intn(len(ops))]
		in := Instr{Op: op}
		sig := opInfo[op].sig
		for _, c := range sig {
			switch c {
			case 'd':
				in.Rd = uint8(rng.Intn(NumRegs))
			case 'a':
				in.Ra = uint8(rng.Intn(NumRegs))
			case 'b':
				in.Rb = uint8(rng.Intn(NumRegs))
			case 'i':
				in.Imm = rng.Int63n(1 << 30)
				if rng.Intn(2) == 0 {
					in.Imm = -in.Imm
				}
			case 'f':
				in.Imm = int64(rng.Intn(3))
			case 'l':
				in.Sym = "target"
			}
		}
		src := in.String() + "\n"
		if strings.Contains(opInfo[op].sig, "l") {
			src += "target: halt\n"
		}
		p, err := Assemble("prop", src)
		if err != nil {
			t.Logf("%q: %v", src, err)
			return false
		}
		got := p.Code[0]
		return got.Op == in.Op && got.Rd == in.Rd && got.Ra == in.Ra && got.Rb == in.Rb && got.Imm == in.Imm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelOnlyLinesAttachToNext(t *testing.T) {
	p := MustAssemble("l", "a:\nb:\n  nop\nhalt")
	if p.Labels["a"] != 0 || p.Labels["b"] != 0 {
		t.Fatalf("labels = %v", p.Labels)
	}
}

func TestRegisterNotLabel(t *testing.T) {
	// "r1: nop" would make r1 a label, which must be rejected as confusing.
	if _, err := Assemble("t", "r1: nop"); err == nil {
		t.Fatal("register name accepted as label")
	}
}

// disasm renders the whole program with its labels, in assembly that
// re-assembles.
func disasm(p *Program) string {
	byIndex := make(map[int][]string)
	for name, at := range p.Labels {
		byIndex[at] = append(byIndex[at], name)
	}
	// Several labels may share an instruction; sort them so the rendering
	// is byte-identical regardless of map iteration order.
	for _, names := range byIndex {
		sort.Strings(names)
	}
	out := ""
	for k, in := range p.Code {
		for _, l := range byIndex[k] {
			out += l + ":\n"
		}
		out += fmt.Sprintf("\t%s\n", in)
	}
	return out
}
