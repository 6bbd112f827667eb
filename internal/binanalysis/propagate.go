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

// --- static memory model -----------------------------------------------------

// memAccess is one load or store with its abstract address: the
// known-bits of rs1+imm before the instruction, mirroring the
// simulator's address computation (imm sign-extended, sum XLEN-masked).
type memAccess struct {
	idx  int
	kb   KnownBits
	size int
}

func accessKB(g *CFG, i int, kz, ko []uint64, xlen int) KnownBits {
	m := xlenMask(xlen)
	in := g.Code[i]
	base := KnownBits{Zero: kz[i*32+int(in.Rs1)], One: ko[i*32+int(in.Rs1)]}
	return kbAdd(base, kbConst(uint64(int64(in.Imm)), m), 0, xlen)
}

// mayOverlap reports whether two accesses' byte ranges can intersect
// on any concretization of their abstract addresses, by interval
// reasoning: every concretization of k lies in [One, mask&^Zero]. A
// range's end is a 65-bit sum (value and carry), so the range of an
// address whose upper bits are unknown (maximum 2^64-1 at XLEN 64) ends
// past every start.
func mayOverlap(a KnownBits, asize int, b KnownBits, bsize int, m uint64) bool {
	aMin, aMax := a.One&m, m&^a.Zero
	bMin, bMax := b.One&m, m&^b.Zero
	aEnd, aCarry := bits.Add64(aMax, uint64(asize), 0)
	bEnd, bCarry := bits.Add64(bMax, uint64(bsize), 0)
	return (bCarry != 0 || aMin < bEnd) && (aCarry != 0 || bMin < aEnd)
}

// loadWindowDemand maps a load destination's live-out mask back to the
// demanded bits of the loaded memory window (in window-local bit
// positions): the low 8*size bits directly, plus — for sign-extending
// loads — the window's top bit whenever any live destination bit lies
// above the window (every such bit replicates the sign).
func loadWindowDemand(op isa.Opcode, size int, live uint64) uint64 {
	w := lowMask(8 * size)
	d := live & w
	if op != isa.OpLbu && live&^w != 0 {
		d |= uint64(1) << (8*size - 1)
	}
	return d
}

// storeDemands computes, per store instruction, the bits of the stored
// value that any load anywhere in the program may architecturally
// observe; all other stored bits are dead the moment they leave the
// register. The final memory image is never compared (classification
// reads the output stream only), so a stored bit matters exactly when
// some load whose destination has live bits can read the bytes
// holding it.
//
// Matching is flow-insensitive (any load may execute after any store
// through CFG cycles) and aliasing is resolved by address known-bits:
// fully known addresses on both sides map bytes exactly; partially
// known ones fall back to interval overlap, demanding the full store
// window when the ranges can intersect and the load has any live
// destination bit. Store-to-load forwarding preserves these byte
// semantics (exact-address forwarding truncates through extendLoad
// like a memory read would).
//
// Returns nil when no store's demand shrinks below its full window, so
// callers can skip a refinement pass.
func storeDemands(g *CFG, kz, ko, liveOut []uint64, xlen int) []uint64 {
	m := xlenMask(xlen)
	var loads []memAccess
	var nStores int
	for i, in := range g.Code {
		switch {
		case in.Op.IsLoad():
			live := uint64(0)
			if d := def(in); d != 0xff {
				live = loadWindowDemand(in.Op, in.Op.MemSize(), liveOut[i*32+int(d)])
			}
			if live != 0 {
				loads = append(loads, memAccess{idx: i, kb: accessKB(g, i, kz, ko, xlen), size: in.Op.MemSize()})
			}
		case in.Op.IsStore():
			nStores++
		}
	}
	if nStores == 0 {
		return nil
	}
	sd := make([]uint64, len(g.Code))
	refined := false
	for i, in := range g.Code {
		if !in.Op.IsStore() {
			continue
		}
		ss := in.Op.MemSize()
		window := lowMask(8*ss) & m
		skb := accessKB(g, i, kz, ko, xlen)
		sAddr, sKnown := skb.Const(m)
		var demand uint64
		for _, l := range loads {
			if !mayOverlap(skb, ss, l.kb, l.size, m) {
				continue
			}
			lAddr, lKnown := l.kb.Const(m)
			if !sKnown || !lKnown {
				demand = window // may alias: every stored bit may be read
				break
			}
			ld := loadWindowDemand(g.Code[l.idx].Op, l.size, liveOut[l.idx*32+int(def(g.Code[l.idx]))])
			for o := 0; o < ss; o++ {
				a := sAddr + uint64(o)
				if a >= lAddr && a < lAddr+uint64(l.size) {
					lb := int(a - lAddr)
					demand |= (ld >> (8 * lb) & 0xff) << (8 * o)
				}
			}
			if demand == window {
				break
			}
		}
		sd[i] = demand & window
		if sd[i] != window {
			refined = true
		}
	}
	if !refined {
		return nil
	}
	return sd
}

// --- must-DUE fixpoint -------------------------------------------------------

// computeDueBits runs the backward must-DUE fixpoint described in the
// package comment above and returns flattened [instruction*32 +
// register] masks: dueIn is the crash-certain mask immediately before
// the instruction, dueOut immediately after. liveOut supplies the
// destination live masks the demand transfer needs; sd is the refined
// store-data demand from storeDemands (nil: full windows).
func computeDueBits(g *CFG, kz, ko, liveOut, sd []uint64, xlen int) (dueIn, dueOut []uint64) {
	n := len(g.Code)
	nb := len(g.Blocks)
	m := xlenMask(xlen)

	var full [32]uint64
	for r := 1; r < 32; r++ {
		full[r] = m
	}

	blockIn := make([][32]uint64, nb)
	for bi := range blockIn {
		blockIn[bi] = full
	}

	preds := make([][]int, nb)
	for bi := range g.Blocks {
		for _, s := range g.Blocks[bi].Succs {
			preds[s] = append(preds[s], bi)
		}
	}

	outOf := func(bi int) [32]uint64 {
		b := g.Blocks[bi]
		if b.Unknown || len(b.Succs) == 0 {
			// Unknown successors: no crash consumer is provable ahead.
			// No successors (halt or out-of-range terminator): nothing
			// executes after, so no bit is crash-certain.
			return [32]uint64{}
		}
		out := full
		for _, s := range b.Succs {
			for r := 1; r < 32; r++ {
				out[r] &= blockIn[s][r]
			}
		}
		return out
	}

	work := make([]int, 0, nb)
	inWork := make([]bool, nb)
	push := func(bi int) {
		if !inWork[bi] {
			inWork[bi] = true
			work = append(work, bi)
		}
	}
	for bi := nb - 1; bi >= 0; bi-- {
		push(bi)
	}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[bi] = false
		b := g.Blocks[bi]
		cur := outOf(bi)
		for i := b.End - 1; i >= b.Start; i-- {
			dueWalkOne(g, i, &cur, kz, ko, liveOut, sd, xlen)
		}
		if cur != blockIn[bi] {
			blockIn[bi] = cur
			for _, p := range preds[bi] {
				push(p)
			}
		}
	}

	dueIn = make([]uint64, n*32)
	dueOut = make([]uint64, n*32)
	for bi := range g.Blocks {
		b := g.Blocks[bi]
		cur := outOf(bi)
		for i := b.End - 1; i >= b.Start; i-- {
			for r := 0; r < 32; r++ {
				dueOut[i*32+r] = cur[r]
			}
			dueWalkOne(g, i, &cur, kz, ko, liveOut, sd, xlen)
			for r := 0; r < 32; r++ {
				dueIn[i*32+r] = cur[r]
			}
		}
	}
	return dueIn, dueOut
}

// dueWalkOne applies the backward must-DUE transfer of one instruction:
// kill the destination, strip every demanded source bit, then OR in
// the crash-certain mask of the base operand.
func dueWalkOne(g *CFG, i int, cur *[32]uint64, kz, ko, liveOut, sd []uint64, xlen int) {
	m := xlenMask(xlen)
	in := g.Code[i]
	var L uint64
	if d := def(in); d != 0xff {
		L = liveOut[i*32+int(d)]
		cur[d] = 0
	}
	s1, s2, d1, d2 := operandDemands(g, i, L, kz, ko, sd, xlen)
	if s1 == 0xff && s2 == 0xff {
		return
	}
	if s1 != 0xff && s1 != uint8(isa.RegZero) {
		cur[s1] &^= d1
	}
	if s2 != 0xff && s2 != uint8(isa.RegZero) {
		cur[s2] &^= d2
	}
	if s1 != 0xff && s1 != uint8(isa.RegZero) {
		cur[s1] |= crashCertainMask(in, xlen) & m
	}
}
