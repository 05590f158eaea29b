package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// AsmError is an assembler diagnostic with its source line.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func asmErrf(line int, format string, args ...any) error {
	return &AsmError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Assemble translates assembly source into a Program. The grammar:
//
//	line      := [label ':'] [instr] [comment]
//	instr     := mnemonic [operand (',' operand)*]
//	operand   := register | immediate | label | field
//	register  := 'r' 0..15
//	immediate := decimal or 0x-hex integer, optionally negative
//	field     := size | port | id        (pkt.f only)
//	comment   := (';' | '#' | '//') to end of line
//
// Branch targets may be forward references; the assembler is two-pass.
func Assemble(name, src string) (*Program, error) {
	p := &Program{Name: name, Labels: make(map[string]int)}
	type patch struct {
		instr int
		sym   string
		line  int
	}
	var patches []patch

	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly several on one line: "a: b: nop").
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			label := strings.TrimSpace(line[:idx])
			if !isLabelName(label) {
				break // a ':' inside something else — let operand parsing complain
			}
			if _, dup := p.Labels[label]; dup {
				return nil, asmErrf(lineNo+1, "duplicate label %q", label)
			}
			p.Labels[label] = len(p.Code)
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}

		mnemonic, rest, _ := strings.Cut(line, " ")
		op, ok := nameToOp[mnemonic]
		if !ok {
			return nil, asmErrf(lineNo+1, "unknown mnemonic %q", mnemonic)
		}
		sig := opInfo[op].sig
		var operands []string
		if strings.TrimSpace(rest) != "" {
			operands = strings.Split(rest, ",")
			for k := range operands {
				operands[k] = strings.TrimSpace(operands[k])
			}
		}
		if len(operands) != len(sig) {
			return nil, asmErrf(lineNo+1, "%s takes %d operands, got %d", mnemonic, len(sig), len(operands))
		}
		in := Instr{Op: op}
		for k, c := range sig {
			text := operands[k]
			switch c {
			case 'd', 'a', 'b':
				r, err := parseReg(text)
				if err != nil {
					return nil, asmErrf(lineNo+1, "%s operand %d: %v", mnemonic, k+1, err)
				}
				switch c {
				case 'd':
					in.Rd = r
				case 'a':
					in.Ra = r
				default:
					in.Rb = r
				}
			case 'i':
				v, err := parseImm(text)
				if err != nil {
					return nil, asmErrf(lineNo+1, "%s operand %d: %v", mnemonic, k+1, err)
				}
				in.Imm = v
			case 'f':
				f, ok := fieldNames[text]
				if !ok {
					return nil, asmErrf(lineNo+1, "unknown packet field %q (want size, port or id)", text)
				}
				in.Imm = int64(f)
			case 'l':
				if !isLabelName(text) {
					return nil, asmErrf(lineNo+1, "bad branch target %q", text)
				}
				in.Sym = text
				patches = append(patches, patch{instr: len(p.Code), sym: text, line: lineNo + 1})
			}
		}
		p.Code = append(p.Code, in)
		p.Lines = append(p.Lines, lineNo+1)
	}

	for _, pt := range patches {
		at, ok := p.Labels[pt.sym]
		if !ok {
			return nil, asmErrf(pt.line, "undefined label %q", pt.sym)
		}
		p.Code[pt.instr].Target = int32(at)
	}
	if len(p.Code) == 0 {
		return nil, asmErrf(0, "empty program %q", name)
	}
	// A label may point one past the last instruction (a halt landing pad
	// would be better practice, but reject it to catch typos early).
	for label, at := range p.Labels {
		if at >= len(p.Code) {
			return nil, fmt.Errorf("asm: label %q points past the end of program %q", label, name)
		}
	}
	return p, nil
}

// MustAssemble is Assemble for statically known-good sources.
//
//nepvet:allow api/unused test helper of the isa and npu tests
func MustAssemble(name, src string) *Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(line string) string {
	for _, marker := range []string{";", "#", "//"} {
		if idx := strings.Index(line, marker); idx >= 0 {
			line = line[:idx]
		}
	}
	return line
}

func isLabelName(s string) bool {
	if s == "" {
		return false
	}
	for k, c := range s {
		switch {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		case c >= '0' && c <= '9':
			if k == 0 {
				return false
			}
		default:
			return false
		}
	}
	// A bare register name is not a label.
	if _, err := parseReg(s); err == nil {
		return false
	}
	return true
}

func parseReg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, fmt.Errorf("expected register r0..r%d, got %q", NumRegs-1, s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("expected register r0..r%d, got %q", NumRegs-1, s)
	}
	return uint8(n), nil
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}
