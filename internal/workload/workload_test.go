package workload

import (
	"strings"
	"testing"

	"nepdvs/internal/isa"
)

func TestAllBenchmarksAssemble(t *testing.T) {
	for _, n := range All {
		p, err := Program(n, DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(p.Code) < 15 {
			t.Errorf("%s: suspiciously small program (%d instructions)", n, len(p.Code))
		}
		// Every benchmark must poll, process and hand off.
		var hasRx, hasTx bool
		for _, in := range p.Code {
			if in.Op == isa.OpRxPop {
				hasRx = true
			}
			if in.Op == isa.OpTxPush {
				hasTx = true
			}
		}
		if !hasRx || !hasTx {
			t.Errorf("%s: missing rx.pop (%v) or tx.push (%v)", n, hasRx, hasTx)
		}
	}
}

func TestNameValid(t *testing.T) {
	for _, n := range All {
		if !n.Valid() {
			t.Errorf("%s should be valid", n)
		}
	}
	if Name("bogus").Valid() {
		t.Error("bogus name reported valid")
	}
	if _, err := Program(Name("bogus"), DefaultParams()); err == nil {
		t.Error("Program accepted unknown benchmark")
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.ALUBurst = 0
	if err := p.Validate(); err == nil {
		t.Error("zero ALUBurst accepted")
	}
	p = DefaultParams()
	p.URLChunkShift = 20
	if err := p.Validate(); err == nil {
		t.Error("oversized chunk shift accepted")
	}
	p = DefaultParams()
	p.MD4BlockShift = 2
	if err := p.Validate(); err == nil {
		t.Error("tiny block shift accepted")
	}
}

// countOps tallies opcode frequencies of a program.
func countOps(p *isa.Program) map[isa.Op]int {
	m := map[isa.Op]int{}
	for _, in := range p.Code {
		m[in.Op]++
	}
	return m
}

// TestMemoryCharacterization pins the paper's §3.1 benchmark descriptions
// to the generated code: nat has exactly one SRAM access and no SDRAM;
// ipfwdr touches both; url and md4 loop over SDRAM; md4 also writes SRAM.
func TestMemoryCharacterization(t *testing.T) {
	p := DefaultParams()
	nat := countOps(mustProgram(NAT, p))
	if nat[isa.OpSramR] != 1 {
		t.Errorf("nat SRAM reads = %d, want 1", nat[isa.OpSramR])
	}
	// nat stores only the header mpacket and never loops over the payload.
	if nat[isa.OpSdramR] != 0 || nat[isa.OpSdramW] != 1 {
		t.Errorf("nat SDRAM ops = %d reads, %d writes; want 0, 1", nat[isa.OpSdramR], nat[isa.OpSdramW])
	}

	ip := countOps(mustProgram(IPFwdr, p))
	if ip[isa.OpSramR] != int(p.IPFwdrTrieSteps) {
		t.Errorf("ipfwdr SRAM reads = %d, want %d", ip[isa.OpSramR], p.IPFwdrTrieSteps)
	}
	// One reassembly store (looped), header read, port-info read, writeback.
	if ip[isa.OpSdramR] != 2 || ip[isa.OpSdramW] != 2 {
		t.Errorf("ipfwdr SDRAM ops = %d reads, %d writes; want 2, 2", ip[isa.OpSdramR], ip[isa.OpSdramW])
	}

	url := countOps(mustProgram(URL, p))
	if url[isa.OpSdramR] != 1 || url[isa.OpSramR] != 1 {
		t.Errorf("url per-chunk ops wrong: %v", url)
	}
	// The chunk loop must be size-driven.
	if url[isa.OpPktF] < 2 {
		t.Errorf("url must read the packet size")
	}

	md4 := countOps(mustProgram(MD4, p))
	if md4[isa.OpSramW] != 1 || md4[isa.OpSramR] != 1 || md4[isa.OpSdramR] != 1 {
		t.Errorf("md4 block ops wrong: %v", md4)
	}
}

// TestMD4RoundStructure pins the genuine MD4 F-step shape: the round body
// must contain the boolean mix (AND/OR/XOR), the 32-bit masking and the
// register rotation, not just generic ALU filler.
func TestMD4RoundStructure(t *testing.T) {
	p := mustProgram(MD4, DefaultParams())
	ops := countOps(p)
	if ops[isa.OpXor] < 1 || ops[isa.OpAnd] < 3 || ops[isa.OpOr] < 2 {
		t.Errorf("md4 lacks the F-function boolean mix: %v", ops)
	}
	if ops[isa.OpShli] < 1 || ops[isa.OpShri] < 1 {
		t.Errorf("md4 lacks the <<<3 rotation: %v", ops)
	}
	if ops[isa.OpMov] < 5 {
		t.Errorf("md4 lacks the (a,b,c,d) rotation: %v", ops)
	}
	// The chaining constants must be loaded.
	var initA bool
	for _, in := range p.Code {
		if in.Op == isa.OpImm && in.Imm == 0x67452301 {
			initA = true
		}
	}
	if !initA {
		t.Error("md4 missing the standard chaining state")
	}
}

func TestTxProgram(t *testing.T) {
	p, err := TxProgram(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ops := countOps(p)
	if ops[isa.OpTxPop] != 1 || ops[isa.OpSend] != 1 {
		t.Fatalf("tx program ops = %v", ops)
	}
	// The transmit path must be pure issue work: no memory references, so
	// the TX engines never satisfy the paper's memory-idle condition.
	if ops[isa.OpSramR]+ops[isa.OpSramW]+ops[isa.OpSdramR]+ops[isa.OpSdramW] != 0 {
		t.Fatalf("tx program touches memory: %v", ops)
	}
	bad := DefaultParams()
	bad.TXPerMpacket = 0
	if _, err := TxProgram(bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestPrograms(t *testing.T) {
	progs, err := Programs(IPFwdr, DefaultParams(), 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 6 {
		t.Fatalf("got %d programs", len(progs))
	}
	for i := 0; i < 4; i++ {
		if progs[i].Name != "ipfwdr" {
			t.Errorf("ME%d program = %s", i, progs[i].Name)
		}
	}
	for i := 4; i < 6; i++ {
		if progs[i].Name != "tx" {
			t.Errorf("ME%d program = %s", i, progs[i].Name)
		}
	}
	if _, err := Programs(IPFwdr, DefaultParams(), 6, 6); err == nil {
		t.Error("rxMEs == numMEs accepted")
	}
	if _, err := Programs(IPFwdr, DefaultParams(), 6, 0); err == nil {
		t.Error("rxMEs == 0 accepted")
	}
	bad := DefaultParams()
	bad.ALUBurst = -1
	if _, err := Programs(IPFwdr, bad, 6, 4); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestDisassemblyReadable(t *testing.T) {
	p := mustProgram(IPFwdr, DefaultParams())
	var dis string
	for _, in := range p.Code {
		dis += in.String() + "\n"
	}
	for _, want := range []string{"rx.pop", "sdram.r", "sram.r", "tx.push"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %s:\n%s", want, dis)
		}
	}
}

// mustProgram is Program for the known-good built-in benchmarks.
func mustProgram(n Name, p Params) *isa.Program {
	prog, err := Program(n, p)
	if err != nil {
		panic(err)
	}
	return prog
}
