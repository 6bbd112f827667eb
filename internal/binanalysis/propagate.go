package binanalysis

// Static fault-propagation analysis: from the bit-level liveness and
// known-bits machinery this file derives the third outcome class the
// paper's taxonomy needs. Bit liveness proves bits MASKED; the
// must-DUE analysis here proves bits CRASH-CERTAIN (DUE): a flipped
// bit whose every static path leads it, undemanded and unredefined,
// into a consumer that deterministically faults — a load or store
// whose base register the flip misaligns or pushes out of the mapped
// address space, or an indirect jump whose target it pushes out of the
// code image — before any instruction can demand the bit for a value,
// address LSB, branch, or output. Bits in neither set are SDC-possible:
// the corruption may reach an architecturally visible result.
//
// The DUE transfer is a backward MUST analysis, dual to liveness:
//
//	due_in(i)[r] = (due_out(i)[r] &^ demanded(i, r)) &^ killed(i, r)
//	               | crash(i, r)
//
// where demanded is the same per-operand demand mask the liveness
// transfer uses (a demanded bit may influence a value, so the crash is
// no longer the certain first effect), killed clears everything when i
// redefines r (the corruption is overwritten), and crash(i, r) is
// crashCertainMask for the base operand of a memory access or indirect
// jump. The crash term is OR'd in last: when the consumer itself is
// the crash-certain reader, the fault at i precedes any other effect
// of i (stores fault at commit before writing, loads fault before
// writeback, a corrupted jalr target faults at the very next commit).
//
// At block boundaries the must-property meets by INTERSECTION over
// successors, and the fixpoint is a greatest one (start from the full
// mask, shrink until stable). Blocks with statically unknown
// successors and blocks with none (halt, out-of-range terminators)
// contribute the empty mask. Soundness of the greatest fixpoint needs
// no reachability argument: unfolding the transfer inequality along
// the (finite) fault-free continuation from any commit point, a bit
// that is set either reaches a crash term — a consumer that faults on
// every execution — or survives, undemanded, to the final halt where
// due_out is 0, a contradiction. So a set bit always denotes a real
// crash-certain consumer ahead on the golden path, with no demand (and
// hence no architecturally visible influence, in particular no output)
// before it.
//
// Demand refinement inherits the single-fault rule from bitlive.go:
// demands consult only the known bits of registers OTHER than the one
// being judged, and the crash masks below consult no known bits at all
// — they rely only on the alignment and address-ceiling invariants
// that every fault-free execution of the machine obeys (a golden run
// that completed never took a memory fault, so every executed access
// had an aligned, in-range address).

import (
	"math/bits"

	"sevsim/internal/isa"
	"sevsim/internal/machine"
)

// addrHighBit is the position of the lowest address bit that is zero
// in every mappable machine address: the stack is the highest region
// and ends at machine.StackTop, so every valid data address is below
// it, and bits.Len64(StackTop-1) bounds them all. Flipping any base
// register bit at or above this position moves an in-range address out
// of the mapped space entirely (the clean address is < 2^addrHighBit,
// so the flip can only SET such a bit, adding 2^b without wrapping).
// addrCeilOK re-checks the layout per program before the DUE tier is
// allowed to use masks built on this constant.
var addrHighBit = bits.Len64(machine.StackTop - 1)

// addrCeilOK verifies the address-space layout the crash masks assume:
// code image and globals both end below 1<<addrHighBit (the stack does
// by construction of addrHighBit). codeLen is in instructions,
// globalSize in bytes; the page rounding machine.New applies is
// over-approximated by a whole extra page.
func addrCeilOK(codeLen int, globalSize uint64) bool {
	const page = 4096
	ceil := uint64(1) << uint(addrHighBit)
	codeEnd := machine.CodeBase + 4*uint64(codeLen) + page
	globalEnd := machine.GlobalBase + uint64(globalSize) + page
	return codeEnd <= ceil && globalEnd <= ceil && machine.StackTop <= ceil
}

// crashCertainMask returns, for one instruction, the bits of its Rs1
// operand whose corruption makes the instruction fault on every
// execution that reaches it fault-free. Only the base register of
// memory accesses and the target base of jalr have such bits:
//
//   - alignment bits, below log2(MemSize): the clean address is
//     size-aligned (a misaligned golden access would have faulted), so
//     the flip lands the access off-alignment by exactly +-2^b;
//   - ceiling bits, at or above addrHighBit: the clean address (and
//     for jalr the clean target) is below 2^addrHighBit, so those bits
//     are zero and the flip adds 2^b, leaving the mapped space.
//
// jalr's bits 0 and 1 are NOT crash-certain: the target computation
// masks with &^3, absorbing them. Store-to-load forwarding cannot
// rescue a corrupted address either: ceiling-bit addresses exceed
// every queued store's address, and an alignment-corrupted address can
// at most partially overlap one, which stalls the access until the
// queue drains and the memory system faults it.
//
// The rule oracle in rules_test.go requires the alignment and ceiling
// bits of every memory opcode, 0 for everything but memory and jalr, and
// a fault on the core for a sample of the bits claimed.
func crashCertainMask(in isa.Instr, xlen int) uint64 {
	m := xlenMask(xlen)
	ceil := m &^ lowMask(addrHighBit)
	switch in.Op {
	case isa.OpLb, isa.OpLbu, isa.OpSb:
		return ceil
	case isa.OpLw, isa.OpSw:
		return (ceil | lowMask(2)) & m
	case isa.OpLd, isa.OpSd:
		return (ceil | lowMask(3)) & m
	case isa.OpJalr:
		return ceil
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpAnd,
		isa.OpOr, isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt,
		isa.OpSltu, isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpSlli, isa.OpSrli, isa.OpSrai, isa.OpSlti, isa.OpSltiu,
		isa.OpLui, isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu,
		isa.OpBgeu, isa.OpJal, isa.OpOut, isa.OpHalt, isa.OpNop:
		// ALU ops, branches, direct jumps, output, and halt cannot
		// fault on an operand value: no corrupted register bit makes
		// them crash deterministically.
		return 0
	}
	// Illegal opcode: faults regardless of operands, so no bit is the
	// deterministic cause.
	return 0
}

// mustDUE is the backward must-DUE problem described in the package
// comment above; solved, it gives the crash-certain masks of every
// register at every program point. live supplies the destination live
// masks the demand transfer needs.
//
// Masks meet by intersection from the full mask down. A block with
// unknown successors exits with nothing crash-certain, since no crash
// consumer is provable ahead; so does a block with none (halt or an
// out-of-range terminator), since nothing executes after it. A step
// kills the destination, strips every demanded source bit, then ORs in
// the crash-certain mask of the base operand.
func mustDUE(g *CFG, kz, ko []uint64, live [][32]uint64, xlen int) backward[[32]uint64] {
	m := xlenMask(xlen)
	var full [32]uint64
	for r := 1; r < 32; r++ {
		full[r] = m
	}
	return backward[[32]uint64]{
		g:    g,
		init: full,
		exit: func(b *Block, in [][32]uint64) [32]uint64 {
			if b.Unknown || len(b.Succs) == 0 {
				return [32]uint64{}
			}
			out := full
			for _, s := range b.Succs {
				for r := 1; r < 32; r++ {
					out[r] &= in[s][r]
				}
			}
			return out
		},
		step: func(i int, cur *[32]uint64) {
			in := g.Code[i]
			var L uint64
			if d := def(in); d != 0xff {
				L = live[i+1][d]
				cur[d] = 0
			}
			s1, s2, d1, d2 := operandDemands(g, i, L, kz, ko, xlen)
			if s2 != 0xff && s2 != uint8(isa.RegZero) {
				cur[s2] &^= d2
			}
			if s1 != 0xff && s1 != uint8(isa.RegZero) {
				cur[s1] &^= d1
				cur[s1] |= crashCertainMask(in, xlen) & m
			}
		},
	}
}
