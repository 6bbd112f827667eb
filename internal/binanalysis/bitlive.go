package binanalysis

// Backward bit-level liveness: for every instruction and every
// architectural register, which BITS of the register can still affect
// any architecturally visible outcome (memory, output, control flow,
// or a value that eventually reaches one of those). The result
// strictly refines register liveness: a register bit can only be live
// if the whole register is live, and dead registers contribute full
// dead-bit masks.
//
// The transfer is demand-driven: an instruction whose destination has
// live mask L demands from each source operand only the bits that can
// influence the L-masked result. Demands may be sharpened using the
// known-bits state of the OTHER operand (e.g. `and rd, rs1, rs2`
// demands of rs1 only L &^ knownZero(rs2): where rs2 is provably zero,
// rs1's bit is annihilated). Using the other operand is sound under
// the single-fault model the pruner assumes: when asking whether a
// flipped bit of register r is dead, every register other than r holds
// its fault-free value, so fault-free known-bits facts about it hold.
// A register's own known bits are never used to shrink its own demand —
// the flip being judged is precisely a violation of that register's
// abstract state. That includes `and rd, r, r`: both operands are r, so
// neither is narrowed by the other (operandDemands).
//
// Instructions with a dead destination demand nothing: on this core
// ALU latencies are fixed per opcode class (latFor), results reach the
// ROB regardless of value, and ALU ops cannot trap, so a corrupted
// operand consumed only by a dead destination cannot perturb timing or
// control. Address operands of loads/stores are always fully demanded
// (a corrupted address faults or touches the wrong line), as are
// branch operands (control) and Out operands (output).

import (
	"math/bits"

	"sevsim/internal/isa"
)

// demandMasks computes, for one instruction whose destination value is
// needed at bit positions L (already intersected with the XLEN mask m),
// the bit masks demanded of Rs1 (d1) and Rs2 (d2). kb1 and kb2 are the
// known-bits states of Rs1 and Rs2 before the instruction; per the
// single-fault rule above, d1 may consult only kb2 and d2 only kb1.
//
// For instructions with no register sources the returned masks are
// meaningless and ignored by the caller (SourceRegs reports none).
// Store instructions follow SourceRegs' convention: operand 1 is the
// base address register (Rs1), operand 2 the stored register (Rd).
//
// The rule oracle in rules_test.go flips bits outside each demand
// against concrete semantics (soundness) and compares the demands of
// bitwise logic and constant shifts with brute force (precision).
func demandMasks(in isa.Instr, L uint64, kb1, kb2 KnownBits, xlen int) (d1, d2 uint64) {
	m := xlenMask(xlen)
	cm := uint64(xlen - 1)
	L &= m
	switch in.Op {
	case isa.OpAdd, isa.OpAddi, isa.OpSub, isa.OpMul:
		// Carries/partial products propagate upward only: bits of the
		// result at or below the highest live bit depend on source bits
		// at or below it, never above.
		d := lowMask(bits.Len64(L))
		return d & m, d & m
	case isa.OpDiv, isa.OpRem:
		// Every quotient/remainder bit may depend on every operand bit.
		if L == 0 {
			return 0, 0
		}
		return m, m
	case isa.OpAnd:
		return L &^ kb2.Zero & m, L &^ kb1.Zero & m
	case isa.OpAndi:
		return L & uint64(uint16(in.Imm)) & m, 0
	case isa.OpOr:
		return L &^ kb2.One & m, L &^ kb1.One & m
	case isa.OpOri:
		return L &^ uint64(uint16(in.Imm)) & m, 0
	case isa.OpXor, isa.OpXori:
		return L, L
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		d1 = shiftDemand(in.Op, L, kb2, xlen)
		if L != 0 {
			d2 = cm // only the masked count bits matter
		}
		return d1, d2
	case isa.OpSlli, isa.OpSrli, isa.OpSrai:
		k := int(uint64(in.Imm) & cm)
		return shiftDemandExact(in.Op, L, k, xlen), 0
	case isa.OpSlt, isa.OpSltu:
		if L&1 != 0 {
			return m, m
		}
		return 0, 0
	case isa.OpSlti, isa.OpSltiu:
		if L&1 != 0 {
			return m, 0
		}
		return 0, 0
	case isa.OpLb, isa.OpLw, isa.OpLd, isa.OpLbu:
		// Base address: any bit flips the accessed location.
		return m, 0
	case isa.OpSb:
		// Operand 2 is the stored register; only the stored byte's bits
		// are architecturally captured (forwarding truncates through
		// extendLoad, and memory writes exactly MemSize bytes).
		return m, 0xff & m
	case isa.OpSw:
		return m, 0xffff_ffff & m
	case isa.OpSd:
		return m, m
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		return m, m
	case isa.OpJalr:
		return m, 0 // indirect target
	case isa.OpOut:
		return m, 0
	case isa.OpJal, isa.OpLui, isa.OpHalt, isa.OpNop:
		return 0, 0
	}
	// Illegal opcode: conservatively demand everything.
	return m, m
}

// shiftDemand joins the exact per-count demand over every shift count
// compatible with the count operand's known low bits.
func shiftDemand(op isa.Opcode, L uint64, count KnownBits, xlen int) uint64 {
	if L == 0 {
		return 0
	}
	cm := uint64(xlen - 1)
	var d uint64
	for k := 0; k <= int(cm); k++ {
		ku := uint64(k)
		if ku&count.Zero&cm != 0 || ^ku&count.One&cm != 0 {
			continue
		}
		d |= shiftDemandExact(op, L, k, xlen)
	}
	return d
}

// shiftDemandExact maps live result bits back through a shift by a
// concrete count: result bit j of `sll` comes from source bit j-k, of
// `srl`/`sra` from source bit j+k, and `sra` additionally replicates
// the sign bit into every vacated high position.
func shiftDemandExact(op isa.Opcode, L uint64, k, xlen int) uint64 {
	m := xlenMask(xlen)
	L &= m
	switch op {
	case isa.OpSll, isa.OpSlli:
		return (L >> k) & m
	case isa.OpSrl, isa.OpSrli:
		return (L << k) & m
	case isa.OpSra, isa.OpSrai:
		d := (L << k) & m
		// Live bits shifted past the top draw from the sign bit.
		if k > 0 && L&^(m>>k) != 0 {
			d |= uint64(1) << (xlen - 1)
		}
		return d
	}
	return m
}

// bitLive is the backward bit-liveness problem; solved, it gives the
// live-bit masks of every register at every program point (solve's
// indexing). kz/ko are the known-bits masks from computeKnownBits,
// consulted for demand refinement of the other operand. A store
// demands every bit it writes (demandMasks): the analysis does not
// track memory, so any stored bit may reach a later load. Masks meet
// by union, and an Unknown block exits with every bit of every register
// live: an indirect transfer with unknown successors may consume
// anything.
//
// The demand an instruction places on its sources depends on its
// destination's live mask, which changes between visits; the masks only
// grow, so the fixpoint terminates.
func bitLive(g *CFG, kz, ko []uint64, xlen int) backward[[32]uint64] {
	m := xlenMask(xlen)
	return backward[[32]uint64]{
		g: g,
		exit: func(b *Block, in [][32]uint64) [32]uint64 {
			var out [32]uint64
			if b.Unknown {
				for r := 1; r < 32; r++ {
					out[r] = m
				}
			}
			for _, s := range b.Succs {
				for r := 1; r < 32; r++ {
					out[r] |= in[s][r]
				}
			}
			return out
		},
		step: func(i int, cur *[32]uint64) {
			var L uint64
			if d := def(g.Code[i]); d != 0xff {
				L = cur[d]
				cur[d] = 0
			}
			s1, s2, d1, d2 := operandDemands(g, i, L, kz, ko, xlen)
			if s1 != 0xff && s1 != uint8(isa.RegZero) {
				cur[s1] |= d1 & m
			}
			if s2 != 0xff && s2 != uint8(isa.RegZero) {
				cur[s2] |= d2 & m
			}
		},
	}
}

// operandDemands returns instruction i's source registers and the bits
// it demands of each when its destination is live at L. When both
// operands are one register a flip changes both, so neither is narrowed
// by the other.
func operandDemands(g *CFG, i int, L uint64, kz, ko []uint64, xlen int) (s1, s2 uint8, d1, d2 uint64) {
	in := g.Code[i]
	s1, s2 = in.SourceRegs()
	kb := func(r uint8) KnownBits {
		if r >= 32 || s1 == s2 {
			return kbTop(xlenMask(xlen))
		}
		return KnownBits{Zero: kz[i*32+int(r)], One: ko[i*32+int(r)]}
	}
	d1, d2 = demandMasks(in, L, kb(s1), kb(s2), xlen)
	return s1, s2, d1, d2
}
