// Package isa defines the microengine instruction set and its two-pass
// assembler. The ISA is a register-transfer abstraction of the IXP1200
// microengine microcode: single-cycle ALU and branch operations, explicit
// multi-word SRAM/SDRAM references that block the issuing hardware context
// (triggering a zero-cost context swap, as on the real part), scratchpad and
// ring operations for inter-ME communication, and receive/transmit FIFO
// operations for the packet path.
//
// The four benchmark applications of the paper (ipfwdr, url, nat, md4) are
// written in this assembly in package workload; package npu interprets it.
package isa

import (
	"fmt"
)

// Op is an instruction opcode.
type Op uint8

// Instruction opcodes.
const (
	OpNop Op = iota
	OpHalt
	OpCtx // voluntary context swap

	// ALU: rd = ra <op> rb (or immediate forms).
	OpImm // rd = imm
	OpMov // rd = ra
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpMul // 3-cycle multiply
	OpAddi
	OpSubi
	OpAndi
	OpShli
	OpShri
	OpHash // rd = hash(ra); models the IXP hash unit, multi-cycle

	// Branches: relative to resolved absolute instruction index.
	OpBr
	OpBeq
	OpBne
	OpBlt
	OpBge

	// Memory references; all block the issuing context until completion.
	// rd/ra meaning: see the assembler grammar in the package docs.
	OpSramR  // sram.r  rd, ra, n   read burst of n words at address ra
	OpSramW  // sram.w  ra, rb, n   write burst of n words
	OpSdramR // sdram.r rd, ra, n
	OpSdramW // sdram.w ra, rb, n
	OpScrR   // scr.r   rd, ra      scratchpad word read
	OpScrW   // scr.w   ra, rb      scratchpad word write

	// Packet path.
	OpRxPop  // rx.pop  rd          pop RFIFO packet handle; -1 when empty
	OpTxPush // tx.push rd, ra      enqueue handle ra on the TX ring; rd = 0 ok, 1 full
	OpTxPop  // tx.pop  rd          pop TX ring; -1 when empty
	OpSend   // send    ra          transmit packet ra; blocks until the TFIFO accepts it
	OpPktF   // pkt.f   rd, ra, f   read field f of packet descriptor ra
	OpCsr    // csr     rd, ra      control/status register access, fixed latency
)

// PktField enumerates packet-descriptor fields readable via OpPktF.
type PktField int64

// Packet descriptor fields.
const (
	FieldSize PktField = iota // payload size in bytes
	FieldPort                 // ingress port number
	FieldID                   // monotone packet id
)

// NumRegs is the per-context general-purpose register count.
const NumRegs = 16

// Instr is one decoded instruction.
type Instr struct {
	Op     Op
	Rd     uint8
	Ra     uint8
	Rb     uint8
	Imm    int64
	Target int32  // resolved absolute instruction index for branches
	Sym    string // branch label before resolution (kept for disassembly)
}

// Program is an assembled instruction sequence with its label table.
type Program struct {
	Name   string
	Code   []Instr
	Labels map[string]int
	// Lines holds the 1-based source line of each instruction when the
	// program came through Assemble; empty for hand-built programs. Used
	// by Lint for diagnostic positions.
	Lines []int
}

// info describes an opcode's assembly syntax.
type info struct {
	name string
	// operand signature: each byte is one of
	//  'd' dest register, 'a','b' source registers, 'i' immediate,
	//  'l' label, 'f' packet field name
	sig string
}

var opInfo = map[Op]info{
	OpNop:    {"nop", ""},
	OpHalt:   {"halt", ""},
	OpCtx:    {"ctx", ""},
	OpImm:    {"imm", "di"},
	OpMov:    {"mov", "da"},
	OpAdd:    {"add", "dab"},
	OpSub:    {"sub", "dab"},
	OpAnd:    {"and", "dab"},
	OpOr:     {"or", "dab"},
	OpXor:    {"xor", "dab"},
	OpShl:    {"shl", "dab"},
	OpShr:    {"shr", "dab"},
	OpMul:    {"mul", "dab"},
	OpAddi:   {"addi", "dai"},
	OpSubi:   {"subi", "dai"},
	OpAndi:   {"andi", "dai"},
	OpShli:   {"shli", "dai"},
	OpShri:   {"shri", "dai"},
	OpHash:   {"hash", "da"},
	OpBr:     {"br", "l"},
	OpBeq:    {"beq", "abl"},
	OpBne:    {"bne", "abl"},
	OpBlt:    {"blt", "abl"},
	OpBge:    {"bge", "abl"},
	OpSramR:  {"sram.r", "dai"},
	OpSramW:  {"sram.w", "abi"},
	OpSdramR: {"sdram.r", "dai"},
	OpSdramW: {"sdram.w", "abi"},
	OpScrR:   {"scr.r", "da"},
	OpScrW:   {"scr.w", "ab"},
	OpRxPop:  {"rx.pop", "d"},
	OpTxPush: {"tx.push", "da"},
	OpTxPop:  {"tx.pop", "d"},
	OpSend:   {"send", "a"},
	OpPktF:   {"pkt.f", "daf"},
	OpCsr:    {"csr", "da"},
}

var nameToOp = func() map[string]Op {
	m := make(map[string]Op, len(opInfo))
	for op, in := range opInfo {
		m[in.name] = op
	}
	return m
}()

var fieldNames = map[string]PktField{"size": FieldSize, "port": FieldPort, "id": FieldID}

// IsBranch reports whether the opcode transfers control.
func (o Op) IsBranch() bool {
	switch o {
	case OpBr, OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// Cycles returns the issue cost in ME cycles. Memory references cost their
// issue cycle here; the blocking latency is decided by the target unit.
func (o Op) Cycles() int64 {
	switch o {
	case OpMul:
		return 3
	case OpHash:
		return 5
	default:
		return 1
	}
}

// String renders the instruction in parseable assembly.
func (in Instr) String() string {
	ifo := opInfo[in.Op]
	s := ifo.name
	sep := " "
	for _, c := range ifo.sig {
		switch c {
		case 'd':
			s += fmt.Sprintf("%sr%d", sep, in.Rd)
		case 'a':
			s += fmt.Sprintf("%sr%d", sep, in.Ra)
		case 'b':
			s += fmt.Sprintf("%sr%d", sep, in.Rb)
		case 'i':
			s += fmt.Sprintf("%s%d", sep, in.Imm)
		case 'f':
			s += sep + fieldName(PktField(in.Imm))
		case 'l':
			if in.Sym != "" {
				s += sep + in.Sym
			} else {
				s += fmt.Sprintf("%s@%d", sep, in.Target)
			}
		}
		sep = ", "
	}
	return s
}

func fieldName(f PktField) string {
	for n, v := range fieldNames {
		if v == f {
			return n
		}
	}
	return fmt.Sprintf("field%d", int64(f))
}
