// Package workload provides the paper's four benchmark applications —
// ipfwdr, url, nat and md4 — as microengine assembly for the npu model,
// plus the transmit microcode run by the TX engines.
//
// Each benchmark reproduces the memory/compute mix §3.1 of the paper
// describes, which is what the DVS results depend on:
//
//	ipfwdr  IP forwarding: per packet, read the header from SDRAM, walk
//	        the routing trie in SRAM, fetch output-port info from SDRAM,
//	        write the updated header back. Memory-intensive.
//	url     URL-based routing: scans the packet payload, so it streams the
//	        payload from SDRAM chunk by chunk with an SRAM pattern-table
//	        access per chunk and a compare loop per word. Very memory- and
//	        compute-intensive, size-dependent.
//	nat     network address translation: a single SRAM lookup of the
//	        translation table, then header rewrite arithmetic — almost no
//	        memory traffic, the engines stay busy (the reason the paper
//	        finds EDVS saves nothing on nat).
//	md4     128-bit digest: moves the payload from SDRAM to SRAM in blocks
//	        and runs compute rounds over each block with SRAM re-reads —
//	        both memory- and computation-intensive.
//
// All four share the receive/dispatch skeleton: poll the RFIFO (the paper's
// §4.2 point that engines actively poll rather than idling under low load),
// process, then push the handle onto the transmit ring with retry on
// backpressure.
package workload

import (
	"fmt"
	"strings"

	"nepdvs/internal/isa"
)

// Name identifies a benchmark.
type Name string

// The four paper benchmarks.
const (
	IPFwdr Name = "ipfwdr"
	URL    Name = "url"
	NAT    Name = "nat"
	MD4    Name = "md4"
)

// All lists the benchmarks in the paper's order.
var All = []Name{IPFwdr, URL, NAT, MD4}

// Valid reports whether n names a known benchmark.
func (n Name) Valid() bool {
	switch n {
	case IPFwdr, URL, NAT, MD4:
		return true
	}
	return false
}

// Params tunes the per-packet work of the benchmarks. The defaults are
// calibrated (see TestCalibration in package core) so that at the paper's
// high-traffic operating point the receive engines exhibit the bimodal idle
// behaviour of §4.2, while nat keeps its engines busy.
type Params struct {
	// MoveWords is the SDRAM burst per 64-byte mpacket when the receive
	// code reassembles the packet into SDRAM (the IXP receive path: the
	// RFIFO is drained mpacket by mpacket into packet memory). 64 bytes =
	// 16 32-bit words.
	MoveWords int64
	// ALUBurst is the common header-processing loop length (iterations;
	// each iteration is 6 instructions).
	ALUBurst int64
	// IPFwdrHeaderWords / IPFwdrTrieSteps / IPFwdrPortWords size ipfwdr's
	// memory behaviour.
	IPFwdrHeaderWords int64
	IPFwdrTrieSteps   int64
	IPFwdrPortWords   int64
	// URLChunkShift: payload bytes per scan chunk = 1<<URLChunkShift.
	URLChunkShift int64
	// URLChunkWords is the SDRAM burst per chunk.
	URLChunkWords int64
	// URLScanIters is the compare-loop iterations per chunk.
	URLScanIters int64
	// NATAluIters is nat's header-rewrite loop length (keeps MEs busy).
	NATAluIters int64
	// MD4BlockShift: payload bytes per digest block = 1<<MD4BlockShift.
	MD4BlockShift int64
	// MD4BlockWords is the SDRAM→SRAM move burst per block.
	MD4BlockWords int64
	// MD4Rounds is the compute iterations per block.
	MD4Rounds int64
	// TXPerMpacket is the transmit engine's per-mpacket work loop
	// (TFIFO status polling and data pushes). The transmit path is pure
	// issue work — no memory references — so the TX engines are the
	// frequency-sensitive stage: chip-wide TDVS downscaling costs transmit
	// capacity, while EDVS never touches the TX engines because their
	// waiting is transmission, not memory (the paper's §4.2 observation).
	TXPerMpacket int64
}

// DefaultParams returns the calibrated work parameters (see the npu and
// core integration tests asserting the §4.2 idle bimodality and the
// benchmark capacity regime they produce).
func DefaultParams() Params {
	return Params{
		MoveWords:         16,
		ALUBurst:          60,
		IPFwdrHeaderWords: 8,
		IPFwdrTrieSteps:   3,
		IPFwdrPortWords:   8,
		URLChunkShift:     7, // 128-byte chunks
		URLChunkWords:     16,
		URLScanIters:      30,
		NATAluIters:       400,
		MD4BlockShift:     7, // 128-byte blocks
		MD4BlockWords:     16,
		MD4Rounds:         16, // one F-pass of genuine MD4 steps per block
		TXPerMpacket:      72,
	}
}

// Validate rejects degenerate parameters.
func (p Params) Validate() error {
	checks := []struct {
		name string
		v    int64
		min  int64
	}{
		{"MoveWords", p.MoveWords, 1},
		{"ALUBurst", p.ALUBurst, 1},
		{"IPFwdrHeaderWords", p.IPFwdrHeaderWords, 1},
		{"IPFwdrTrieSteps", p.IPFwdrTrieSteps, 1},
		{"IPFwdrPortWords", p.IPFwdrPortWords, 1},
		{"URLChunkShift", p.URLChunkShift, 4},
		{"URLChunkWords", p.URLChunkWords, 1},
		{"URLScanIters", p.URLScanIters, 1},
		{"NATAluIters", p.NATAluIters, 1},
		{"MD4BlockShift", p.MD4BlockShift, 4},
		{"MD4BlockWords", p.MD4BlockWords, 1},
		{"MD4Rounds", p.MD4Rounds, 1},
		{"TXPerMpacket", p.TXPerMpacket, 1},
	}
	for _, c := range checks {
		if c.v < c.min {
			return fmt.Errorf("workload: %s = %d below minimum %d", c.name, c.v, c.min)
		}
	}
	if p.URLChunkShift > 12 || p.MD4BlockShift > 12 {
		return fmt.Errorf("workload: chunk/block shift above 12 (4 KiB) is not meaningful")
	}
	if p.MoveWords > 16 {
		return fmt.Errorf("workload: MoveWords %d exceeds an mpacket (16 words)", p.MoveWords)
	}
	return nil
}

// Registers used by the shared skeleton:
//
//	r0  packet handle
//	r1  constant -1 (empty-queue sentinel)
//	r2  tx.push status
//	r14 scratch/loop counter
//	r15 per-benchmark temporary
const rxPrologue = `
	imm     r15, 0            ; seed the rolling temporary (once per context)
main:
	rx.pop  r0
	imm     r1, -1
	beq     r0, r1, main      ; poll: the ME stays busy when idle-of-work
`

// rxEpilogue's retry loop is also a shape npu.predecode fuses: turns that
// find the ring full are skipped a whole round at a time.
const rxEpilogue = `
push:
	tx.push r2, r0
	imm     r3, 0
	beq     r2, r3, main      ; handed off; next packet
	ctx                       ; ring full: yield, then retry
	br      push
`

// aluLoop emits a counted arithmetic loop: iters iterations of 6
// instructions (including loop control). npu.predecode fuses exactly this
// shape, a self-loop over four distinct registers, into one handler that
// runs whole iterations in Go locals; keep it when editing the loop, or
// the interpreter falls back to dispatching each instruction.
func aluLoop(label string, counterReg string, iters int64) string {
	return fmt.Sprintf(`
	imm     %[2]s, %[3]d
%[1]s:
	addi    r15, r15, 17
	shli    r13, r15, 3
	xor     r15, r15, r13
	subi    %[2]s, %[2]s, 1
	imm     r12, 0
	bne     %[2]s, r12, %[1]s
`, label, counterReg, iters)
}

// rxMove emits the IXP receive reassembly: drain the packet's mpackets from
// the RFIFO into the SDRAM packet buffer, one MoveWords burst per 64 bytes.
// Afterwards r7 holds the packet buffer base address. When full is false
// only the first mpacket (the header) is moved — the in-place processing
// style nat uses.
func rxMove(p Params, full bool) string {
	if !full {
		return `
	pkt.f   r6, r0, id
	hash    r7, r6            ; packet buffer base
	sdram.w r7, r15, ` + fmt.Sprint(p.MoveWords) + ` ; store header mpacket
`
	}
	return fmt.Sprintf(`
	pkt.f   r4, r0, size
	shri    r5, r4, 6         ; mpackets = size >> 6
	addi    r5, r5, 1
	pkt.f   r6, r0, id
	hash    r7, r6            ; packet buffer base
	mov     r8, r7
mvloop:
	sdram.w r8, r15, %d       ; reassemble one mpacket into SDRAM
	addi    r8, r8, 64
	subi    r5, r5, 1
	imm     r9, 0
	bne     r5, r9, mvloop
`, p.MoveWords)
}

// Program assembles the named benchmark with the given parameters.
func Program(n Name, p Params) (*isa.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var body string
	switch n {
	case IPFwdr:
		body = ipfwdrBody(p)
	case URL:
		body = urlBody(p)
	case NAT:
		body = natBody(p)
	case MD4:
		body = md4Body(p)
	default:
		return nil, fmt.Errorf("workload: unknown benchmark %q", n)
	}
	src := rxPrologue + body + rxEpilogue
	prog, err := isa.Assemble(string(n), src)
	if err != nil {
		return nil, fmt.Errorf("workload: assembling %s: %w", n, err)
	}
	return prog, nil
}

// ipfwdrBody: full receive reassembly, SDRAM header read, SRAM trie walk,
// SDRAM port info, header writeback, checksum arithmetic.
func ipfwdrBody(p Params) string {
	var b strings.Builder
	b.WriteString(rxMove(p, true))
	fmt.Fprintf(&b, "\tsdram.r r6, r7, %d        ; read IP header\n", p.IPFwdrHeaderWords)
	// Trie walk: dependent SRAM reads.
	b.WriteString("\thash    r10, r6           ; destination address\n")
	for s := int64(0); s < p.IPFwdrTrieSteps; s++ {
		fmt.Fprintf(&b, "\tsram.r  r10, r10, 2       ; trie step %d\n", s+1)
	}
	// Output-port information from SDRAM.
	fmt.Fprintf(&b, "\tsdram.r r8, r10, %d       ; output port info\n", p.IPFwdrPortWords)
	// Header update arithmetic (TTL, checksum).
	b.WriteString(aluLoop("cksum", "r11", p.ALUBurst))
	// Header writeback.
	b.WriteString("\tsdram.w r7, r8, 4         ; write updated header\n")
	return b.String()
}

// urlBody: full receive reassembly, then a size-dependent payload scan from
// SDRAM with an SRAM pattern access per chunk.
func urlBody(p Params) string {
	var b strings.Builder
	b.WriteString(rxMove(p, true))
	fmt.Fprintf(&b, `
	pkt.f   r4, r0, size
	shri    r6, r4, %d        ; chunks = size >> shift
	addi    r6, r6, 1
	mov     r8, r7
chunk:
	sdram.r r10, r8, %d       ; stream payload chunk
	sram.r  r11, r10, 2       ; pattern table probe
`, p.URLChunkShift, p.URLChunkWords)
	b.WriteString(aluLoop("scan", "r14", p.URLScanIters))
	b.WriteString(`
	addi    r8, r8, 64
	subi    r6, r6, 1
	imm     r10, 0
	bne     r6, r10, chunk
`)
	return b.String()
}

// natBody: header-only receive (in-place translation), one SRAM lookup,
// then busy header-rewrite work — the paper's "MEs are kept busy" case.
func natBody(p Params) string {
	var b strings.Builder
	b.WriteString(rxMove(p, false))
	b.WriteString(`
	pkt.f   r4, r0, port
	hash    r8, r6
	sram.r  r9, r8, 2         ; translation table lookup
`)
	b.WriteString(aluLoop("rewrite", "r11", p.NATAluIters))
	return b.String()
}

// md4Rounds emits a counted loop of genuine MD4 F-pass steps:
//
//	a = (a + F(b,c,d) + X) <<< 3,  F(b,c,d) = (b AND c) OR (NOT b AND d)
//
// followed by the (a,b,c,d) register rotation, all in 32-bit arithmetic
// (our registers are 64-bit, so results are masked). X is the block's
// pseudo-data word in r10. Registers: a=r5, b=r7, c=r9, d=r13; temps
// r12, r15; counter in counterReg.
func md4Rounds(label, counterReg string, steps int64) string {
	return fmt.Sprintf(`
	imm     %[2]s, %[3]d
%[1]s:
	and     r15, r7, r9       ; b AND c
	imm     r12, -1
	xor     r12, r7, r12      ; NOT b
	and     r12, r12, r13     ; NOT b AND d
	or      r15, r15, r12     ; F(b,c,d)
	add     r5, r5, r15       ; a += F
	add     r5, r5, r10       ; a += X
	imm     r12, 0xffffffff
	and     r5, r5, r12
	shli    r15, r5, 3        ; a <<< 3 (32-bit rotate)
	shri    r12, r5, 29
	or      r5, r15, r12
	imm     r12, 0xffffffff
	and     r5, r5, r12
	mov     r15, r13          ; (a,b,c,d) = (d,a,b,c)
	mov     r13, r9
	mov     r9, r7
	mov     r7, r5
	mov     r5, r15
	subi    %[2]s, %[2]s, 1
	imm     r12, 0
	bne     %[2]s, r12, %[1]s
`, label, counterReg, steps)
}

// md4Body: full receive reassembly, then size-dependent SDRAM→SRAM block
// moves with genuine MD4 F-pass steps and SRAM re-reads.
func md4Body(p Params) string {
	var b strings.Builder
	b.WriteString(rxMove(p, true))
	fmt.Fprintf(&b, `
	pkt.f   r4, r0, size
	shri    r6, r4, %d        ; blocks = size >> shift
	addi    r6, r6, 1
	mov     r8, r7
	imm     r11, 0x4000       ; SRAM staging base
	imm     r5, 0x67452301    ; MD4 chaining state A
	imm     r7, 0xefcdab89    ; B (clobbers the buffer base; r8 cursors)
	imm     r9, 0x98badcfe    ; C
	imm     r13, 0x10325476   ; D
block:
	sdram.r r10, r8, %d       ; fetch block
	sram.w  r11, r10, %d      ; stage block in SRAM
`, p.MD4BlockShift, p.MD4BlockWords, p.MD4BlockWords)
	b.WriteString(md4Rounds("round", "r14", p.MD4Rounds))
	b.WriteString(`
	sram.r  r10, r11, 4       ; re-read staged words
	addi    r8, r8, 64
	addi    r11, r11, 16
	subi    r6, r6, 1
	imm     r10, 0
	bne     r6, r10, block
`)
	return b.String()
}

// TxProgram assembles the transmit microcode: drain the transmit ring,
// stage each mpacket into the egress TFIFO (pure issue work: status polls
// and data pushes, no memory references), then hand the packet to the port.
func TxProgram(p Params) (*isa.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	src := fmt.Sprintf(`
	imm     r15, 0            ; seed the rolling temporary (once per context)
main:
	tx.pop  r0
	imm     r1, -1
	beq     r0, r1, main      ; poll the transmit ring
	pkt.f   r4, r0, size
	shri    r5, r4, 6         ; mpackets = size >> 6
	addi    r5, r5, 1
txmv:                          ; stage one mpacket into the TFIFO
%s	subi    r5, r5, 1
	imm     r9, 0
	bne     r5, r9, txmv
	send    r0                ; blocks until the port takes the packet
	br      main
`, aluLoop("stage", "r10", p.TXPerMpacket))
	prog, err := isa.Assemble("tx", src)
	if err != nil {
		return nil, fmt.Errorf("workload: assembling tx: %w", err)
	}
	return prog, nil
}

// Programs builds the per-ME program vector for a chip configuration:
// rxMEs copies of the benchmark program followed by (numMEs - rxMEs)
// transmit programs.
func Programs(n Name, p Params, numMEs, rxMEs int) ([]*isa.Program, error) {
	if rxMEs < 1 || rxMEs >= numMEs {
		return nil, fmt.Errorf("workload: rxMEs %d of %d MEs", rxMEs, numMEs)
	}
	rx, err := Program(n, p)
	if err != nil {
		return nil, err
	}
	tx, err := TxProgram(p)
	if err != nil {
		return nil, err
	}
	out := make([]*isa.Program, numMEs)
	for i := range out {
		if i < rxMEs {
			out[i] = rx
		} else {
			out[i] = tx
		}
	}
	return out, nil
}
