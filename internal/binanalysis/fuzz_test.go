package binanalysis_test

// Differential soundness fuzz for the known-bits domain: random
// straight-line instruction sequences are executed concretely on the
// full timing simulator (the same machine the fault injector drives —
// the repo's ground-truth interpreter of the ISA), and every concrete
// register value observed through an `out` instruction must be
// compatible with the abstract known-bits state at that point: no bit
// the analysis claims known-0 may be set, and no bit claimed known-1
// may be clear. Both microarchitectures run, so the transfers are
// exercised at XLEN 32 and 64 (sign extension, shift-count masking,
// and the div/rem corner cases all differ between the two).

import (
	"testing"

	"sevsim/internal/binanalysis"
	"sevsim/internal/isa"
	"sevsim/internal/machine"
)

// fuzzRegs is the register pool fuzz programs compute in: the argument
// and temporary registers, away from zr/sp/ra so the CFG invariants
// and the return idiom stay out of the picture.
var fuzzRegs = []uint8{
	uint8(isa.RegA0), uint8(isa.RegA1), uint8(isa.RegA2), uint8(isa.RegA3),
	uint8(isa.RegT0), uint8(isa.RegT1), uint8(isa.RegT2), uint8(isa.RegS0),
}

// fuzzOps are the ALU opcodes a fuzz byte can select. Loads, stores,
// branches, and jumps are excluded: the program must stay straight-line
// and memory-free so the concrete run is a pure function of the
// register initialization.
var fuzzOps = []isa.Opcode{
	isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
	isa.OpAnd, isa.OpOr, isa.OpXor,
	isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt, isa.OpSltu,
	isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
	isa.OpSlli, isa.OpSrli, isa.OpSrai, isa.OpSlti, isa.OpSltiu,
}

func isImmOp(op isa.Opcode) bool {
	switch op {
	case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpSlli, isa.OpSrli, isa.OpSrai, isa.OpSlti, isa.OpSltiu:
		return true
	}
	return false
}

// buildFuzzProgram decodes fuzz bytes into a straight-line program:
// every pool register is initialized to a 32-bit constant (lui + ori),
// then each 5-byte chunk appends one ALU instruction followed by an
// `out` of its destination, so the abstract state is checked after
// every single transfer. Returns the instructions and, for each out,
// the (instruction index, observed register) pair.
func buildFuzzProgram(data []byte) (prog []isa.Instr, outs [][2]int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for _, r := range fuzzRegs {
		hi := int32(int16(uint16(next()) | uint16(next())<<8))
		lo := int32(uint16(next()) | uint16(next())<<8)
		prog = append(prog,
			isa.I(isa.OpLui, r, 0, hi),
			isa.I(isa.OpOri, r, r, lo))
	}
	nops := 0
	for len(data) >= 5 && nops < 24 {
		op := fuzzOps[int(next())%len(fuzzOps)]
		rd := fuzzRegs[int(next())%len(fuzzRegs)]
		rs1 := fuzzRegs[int(next())%len(fuzzRegs)]
		if isImmOp(op) {
			imm := int32(int16(uint16(next()) | uint16(next())<<8))
			prog = append(prog, isa.I(op, rd, rs1, imm))
		} else {
			rs2 := fuzzRegs[int(next())%len(fuzzRegs)]
			next() // keep chunking uniform
			prog = append(prog, isa.R(op, rd, rs1, rs2))
		}
		outs = append(outs, [2]int{len(prog), int(rd)})
		prog = append(prog, isa.Out(rd))
		nops++
	}
	// Final observation of the whole pool.
	for _, r := range fuzzRegs {
		outs = append(outs, [2]int{len(prog), int(r)})
		prog = append(prog, isa.Out(r))
	}
	prog = append(prog, isa.Halt())
	return prog, outs
}

// knownBitsSeeds is FuzzKnownBitsVsInterp's seed corpus.
var knownBitsSeeds = [][]byte{
	{},
	{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 1, 2, 3, 4, 5},
	{
		0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x80, 0, 0, 0x80, 1, 1, 1, 1,
		3, 0, 1, 2, 0, // div
		8, 1, 2, 0, 31, // sll
		20, 3, 4, 0xff, 0, // srai
	},
}

// FuzzKnownBitsVsInterp cross-checks the abstract interpretation
// against concrete interpretation/execution. (The name keeps the
// historical "interp" suffix: the concrete oracle is the cycle-level
// machine, which is the repo's executable semantics of the ISA — the
// MiniC-level internal/interp never sees SEV instructions.)
func FuzzKnownBitsVsInterp(f *testing.F) {
	for _, seed := range knownBitsSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, outs := buildFuzzProgram(data)
		words := isa.Assemble(prog)
		a, err := binanalysis.AnalyzeWords(words)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		for _, cfg := range []machine.Config{machine.CortexA15Like(), machine.CortexA72Like()} {
			xlen := cfg.CPU.XLEN
			mask := ^uint64(0)
			if xlen < 64 {
				mask = 1<<xlen - 1
			}
			kz, ko := binanalysis.ComputeKnownBits(a.CFG, xlen)
			mm := machine.New(cfg, &machine.Program{
				Name: "fuzz", Code: words, Entry: machine.CodeBase, GlobalSize: 64,
			})
			res := mm.Run(1_000_000)
			if res.Outcome != machine.OutcomeOK {
				t.Fatalf("%s: straight-line ALU program did not complete: %s %s",
					cfg.Name, res.Outcome, res.Reason)
			}
			if len(res.Output) != len(outs) {
				t.Fatalf("%s: %d outputs, want %d", cfg.Name, len(res.Output), len(outs))
			}
			for k, o := range outs {
				idx, reg := o[0], uint8(o[1])
				kb := binanalysis.KnownBits{Zero: kz[idx*32+int(reg)], One: ko[idx*32+int(reg)]}
				v := res.Output[k]
				if !kb.Compatible(v, mask) {
					t.Errorf("%s: out #%d at idx %d: reg %s = %#x contradicts known bits (zero=%#x one=%#x)",
						cfg.Name, k, idx, isa.RegName(reg), v, kb.Zero, kb.One)
				}
			}
		}
	})
}
