package binanalysis

// Forward known-bits abstract interpretation: for every instruction and
// every architectural register, which bits of the register's value are
// provably 0 (or provably 1) on every fault-free execution reaching
// that instruction along any static path.
//
// The domain is the standard known-bits lattice (LLVM's KnownBits): a
// pair of masks (Zero, One) with Zero&One == 0; a bit set in neither
// mask is unknown. The join at control-flow merges intersects the two
// sides' knowledge, so the fixpoint descends a finite lattice and
// terminates. Transfer functions are exact for the simulator's ALU
// (isa.ALU) over the XLEN-masked value domain: physical register values
// are stored maskTo'd (zero-extended above XLEN), so bits at and above
// XLEN are always known zero.
//
// Soundness scope: the masks describe fault-free executions. The bit
// pruner may still use them to reason about a single-fault run, but
// only ever about registers OTHER than the one holding the flipped bit
// (see demandMasks in bitlive.go): under a single-bit fault whose
// corrupted value is consumed only by dead bits, every other register
// carries a fault-free value, so its masks hold.

import (
	"math/bits"

	"sevsim/internal/isa"
	"sevsim/internal/machine"
)

// KnownBits is the abstract value of one register at one program point.
type KnownBits struct {
	Zero uint64 // bits proven 0 on every path
	One  uint64 // bits proven 1 on every path
}

// xlenMask returns the value mask for the machine word width.
func xlenMask(xlen int) uint64 {
	if xlen >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<xlen - 1
}

// lowMask returns a mask of the n lowest bits.
func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<n - 1
}

// kbTop is the no-knowledge element for an XLEN-masked value: bits at
// and above XLEN are still known zero (writePhys masks every write).
func kbTop(m uint64) KnownBits { return KnownBits{Zero: ^m} }

// kbConst is the exact abstraction of one concrete (masked) value.
func kbConst(v, m uint64) KnownBits {
	v &= m
	return KnownBits{Zero: ^v, One: v}
}

// Const returns the concrete value when every bit inside the mask is
// known, and false otherwise.
func (k KnownBits) Const(m uint64) (uint64, bool) {
	if (k.Zero|k.One)&m == m {
		return k.One & m, true
	}
	return 0, false
}

// Compatible reports whether the concrete (masked) value v agrees with
// the known bits: no bit claimed zero is set and no bit claimed one is
// clear. This is the property the differential fuzz test checks.
func (k KnownBits) Compatible(v, m uint64) bool {
	v &= m
	return k.Zero&v == 0 && k.One&^v == 0
}

// kbJoin intersects the knowledge of two control-flow predecessors.
func kbJoin(a, b KnownBits) KnownBits {
	return KnownBits{Zero: a.Zero & b.Zero, One: a.One & b.One}
}

// kbNot is bitwise complement within the mask.
func kbNot(a KnownBits, m uint64) KnownBits {
	return KnownBits{Zero: a.One&m | ^m, One: a.Zero & m}
}

// kbBit reads one bit's knowledge: (value, known).
func kbBit(k KnownBits, bit uint64) (int, bool) {
	if k.Zero&bit != 0 {
		return 0, true
	}
	if k.One&bit != 0 {
		return 1, true
	}
	return 0, false
}

// kbState is the abstract machine state: one KnownBits per
// architectural register. Index 0 (the zero register) is pinned to the
// constant 0 and never written (DestReg treats r0 writes as no-ops).
type kbState [32]KnownBits

// kbTopState is the entry/unknown state: nothing known about any
// register except the hard-wired zero.
func kbTopState(m uint64) kbState {
	var st kbState
	for r := range st {
		st[r] = kbTop(m)
	}
	st[isa.RegZero] = kbConst(0, m)
	return st
}

// kbEval computes the abstract value an instruction writes to its
// destination register, given the known-bits state before it. Index i
// is the instruction's position in the code image (the link value of a
// jump is the exact constant CodeBase + 4*(i+1)).
//
// The switch must handle every isa opcode: the rule oracle in
// rules_test.go requires the exact value for every opcode that writes a
// register from registers or an immediate, so an opcode the switch
// forgets fails there by name.
func kbEval(i int, in isa.Instr, st *kbState, xlen int) KnownBits {
	m := xlenMask(xlen)
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpAnd,
		isa.OpOr, isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt,
		isa.OpSltu:
		return kbALU(in.Op, st[in.Rs1], st[in.Rs2], xlen)
	case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpSlli,
		isa.OpSrli, isa.OpSrai, isa.OpSlti, isa.OpSltiu:
		return kbALU(in.Op, st[in.Rs1], kbConst(isa.ImmOperand(in.Op, int64(in.Imm)), m), xlen)
	case isa.OpLui:
		return kbConst(uint64(int64(in.Imm)<<16), m)
	case isa.OpLbu:
		// Byte load zero-extended: bits 8 and above are known zero.
		return KnownBits{Zero: ^uint64(0xff)}
	case isa.OpLb, isa.OpLw, isa.OpLd:
		// Sign-extended or full-width load: no bit is individually known.
		return kbTop(m)
	case isa.OpJal, isa.OpJalr:
		// Link value: the exact return address pc+4.
		return kbConst(machine.CodeBase+4*uint64(i)+4, m)
	case isa.OpSw, isa.OpSb, isa.OpSd, isa.OpBeq, isa.OpBne, isa.OpBlt,
		isa.OpBge, isa.OpBltu, isa.OpBgeu, isa.OpOut, isa.OpHalt, isa.OpNop:
		// No destination register; DestReg filters these before the
		// result is consumed.
		return kbTop(m)
	}
	// Illegal opcode: faults at decode, writes nothing.
	return kbTop(m)
}

// kbALU is the opcode-level transfer over resolved operands. Fully
// known operands evaluate concretely through isa.ALU, the core's own
// semantics; partially known ones fall to per-opcode bit reasoning.
func kbALU(op isa.Opcode, a, b KnownBits, xlen int) KnownBits {
	m := xlenMask(xlen)
	if av, aok := a.Const(m); aok {
		if bv, bok := b.Const(m); bok {
			return kbConst(isa.ALU(op, av, bv, xlen), m)
		}
	}
	switch op {
	case isa.OpAdd, isa.OpAddi:
		return kbAdd(a, b, 0, xlen)
	case isa.OpSub:
		return kbAdd(a, kbNot(b, m), 1, xlen)
	case isa.OpMul:
		// Trailing known zeros of the factors add up in the product.
		tz := kbTrailingZeros(a, xlen) + kbTrailingZeros(b, xlen)
		if tz > xlen {
			tz = xlen
		}
		return KnownBits{Zero: ^m | lowMask(tz)}
	case isa.OpDiv, isa.OpRem:
		return kbTop(m)
	case isa.OpAnd, isa.OpAndi:
		return KnownBits{Zero: a.Zero | b.Zero, One: a.One & b.One}
	case isa.OpOr, isa.OpOri:
		return KnownBits{Zero: a.Zero & b.Zero, One: a.One | b.One}
	case isa.OpXor, isa.OpXori:
		return KnownBits{
			Zero: (a.Zero & b.Zero) | (a.One & b.One),
			One:  (a.Zero & b.One) | (a.One & b.Zero),
		}
	case isa.OpSll, isa.OpSlli, isa.OpSrl, isa.OpSrli, isa.OpSra, isa.OpSrai:
		return kbShift(op, a, b, xlen)
	case isa.OpSlt, isa.OpSlti:
		return kbCompare(a, b, true, xlen)
	case isa.OpSltu, isa.OpSltiu:
		return kbCompare(a, b, false, xlen)
	}
	return kbTop(m)
}

// kbTrailingZeros counts the consecutive known-zero bits from bit 0.
func kbTrailingZeros(k KnownBits, xlen int) int {
	t := bits.TrailingZeros64(^k.Zero)
	if t > xlen {
		t = xlen
	}
	return t
}

// kbAdd is bit-serial known-bits addition with an initial carry
// (carry 1 + complemented b implements subtraction). The carry state
// is known-0, known-1, or unknown (-1); a bit of the sum is known only
// when both addend bits and the incoming carry are known.
func kbAdd(a, b KnownBits, carry int, xlen int) KnownBits {
	m := xlenMask(xlen)
	res := KnownBits{Zero: ^m}
	for i := 0; i < xlen; i++ {
		bit := uint64(1) << i
		av, ak := kbBit(a, bit)
		bv, bk := kbBit(b, bit)
		known, ones := 0, 0
		if ak {
			known++
			ones += av
		}
		if bk {
			known++
			ones += bv
		}
		if carry >= 0 {
			known++
			ones += carry
		}
		if known == 3 {
			if ones&1 == 1 {
				res.One |= bit
			} else {
				res.Zero |= bit
			}
			carry = ones >> 1
			continue
		}
		// Sum bit unknown. The outgoing carry is still known when two
		// inputs agree: two known ones force a carry, two known zeros
		// (known minus ones of them are zero) forbid one.
		switch {
		case ones >= 2:
			carry = 1
		case known-ones >= 2:
			carry = 0
		default:
			carry = -1
		}
	}
	return res
}

// kbShift joins the exact shift result over every count value
// compatible with the count operand's known low bits (the hardware
// masks the count with XLEN-1, so only those bits matter). A fully
// known count leaves a single candidate and the transfer is exact.
func kbShift(op isa.Opcode, a, b KnownBits, xlen int) KnownBits {
	cm := uint64(xlen - 1)
	res := kbTop(xlenMask(xlen))
	first := true
	for k := 0; k <= int(cm); k++ {
		ku := uint64(k)
		if ku&b.Zero&cm != 0 || ^ku&b.One&cm != 0 {
			continue // count k contradicts a known bit of the operand
		}
		s := kbShiftExact(op, a, k, xlen)
		if first {
			res, first = s, false
		} else {
			res = kbJoin(res, s)
		}
	}
	return res
}

// kbShiftExact shifts the known masks by a concrete count.
func kbShiftExact(op isa.Opcode, a KnownBits, k, xlen int) KnownBits {
	m := xlenMask(xlen)
	switch op {
	case isa.OpSll, isa.OpSlli:
		return KnownBits{
			Zero: (a.Zero&m)<<k&m | lowMask(k) | ^m,
			One:  (a.One & m) << k & m,
		}
	case isa.OpSrl, isa.OpSrli:
		return KnownBits{
			Zero: (a.Zero&m)>>k | ^(m >> k),
			One:  (a.One & m) >> k,
		}
	case isa.OpSra, isa.OpSrai:
		// Arithmetic shift replicates the sign bit: extend each mask's
		// knowledge of bit XLEN-1 upward before the logical shift.
		sign := uint64(1) << (xlen - 1)
		ze, oe := a.Zero&m, a.One&m
		if a.Zero&sign != 0 {
			ze |= ^m
		}
		if a.One&sign != 0 {
			oe |= ^m
		}
		return KnownBits{Zero: ze>>k&m | ^m, One: oe >> k & m}
	}
	return kbTop(m)
}

// kbFlipKnowledge exchanges the known-zero/known-one roles of one bit,
// abstracting v -> v ^ bit (used to reduce signed to unsigned order).
func kbFlipKnowledge(k KnownBits, bit uint64) KnownBits {
	z, o := k.Zero&bit, k.One&bit
	k.Zero = k.Zero&^bit | o
	k.One = k.One&^bit | z
	return k
}

// kbCompare abstracts slt/sltu: bits above 0 are always zero, and bit
// 0 is known when the operands' value intervals do not overlap. Signed
// comparison is reduced to unsigned by flipping the sign bit of both
// sides (x ^ signbit is monotone between the two orders).
func kbCompare(a, b KnownBits, signed bool, xlen int) KnownBits {
	m := xlenMask(xlen)
	res := KnownBits{Zero: ^m | m&^1}
	if signed {
		sign := uint64(1) << (xlen - 1)
		a = kbFlipKnowledge(a, sign)
		b = kbFlipKnowledge(b, sign)
	}
	minA, maxA := a.One&m, m&^a.Zero
	minB, maxB := b.One&m, m&^b.Zero
	switch {
	case maxA < minB:
		res.One |= 1 // a < b on every concretization
	case minA >= maxB:
		res.Zero |= 1 // a >= b on every concretization
	}
	return res
}

// computeKnownBits runs the forward fixpoint over the CFG and returns
// the per-instruction known-zero/known-one masks flattened as
// [instruction*32 + register]. The recorded state is the one in effect
// BEFORE the instruction executes.
func computeKnownBits(g *CFG, xlen int) (kz, ko []uint64) {
	n := len(g.Code)
	kz = make([]uint64, n*32)
	ko = make([]uint64, n*32)
	for bi, st := range knownBlockIn(g, xlen) {
		b := g.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			for r := 0; r < 32; r++ {
				kz[i*32+r] = st[r].Zero
				ko[i*32+r] = st[r].One
			}
			kbApply(&st, i, g.Code[i], xlen)
		}
	}
	return kz, ko
}

// knownBlockIn returns each block's entry state at the fixpoint.
//
// Reachability: the entry block starts at top; function entries and
// return points receive state through the call and return edges
// BuildCFG already materializes. A block the fixpoint never reaches
// (unreachable code) reports top. If the binary contains
// an indirect transfer with statically unknown successors
// (Block.Unknown), every block degrades to top: such a jump could land
// anywhere, so no interblock fact survives. The compiler never emits
// one (jalr is only the return idiom), so compiled workloads keep full
// precision.
func knownBlockIn(g *CFG, xlen int) []kbState {
	top := kbTopState(xlenMask(xlen))
	in := make([]kbState, len(g.Blocks))
	for bi := range in {
		in[bi] = top
	}
	for _, b := range g.Blocks {
		if b.Unknown {
			return in
		}
	}
	entry := g.BlockOf[0]
	reached := make([]bool, len(g.Blocks))
	reached[entry] = true
	w := newWorklist(len(g.Blocks))
	w.push(entry)
	w.drain(func(bi int) {
		b := g.Blocks[bi]
		st := in[bi]
		for i := b.Start; i < b.End; i++ {
			kbApply(&st, i, g.Code[i], xlen)
		}
		for _, s := range b.Succs {
			if !reached[s] {
				reached[s] = true
				in[s] = st
				w.push(s)
				continue
			}
			joined := in[s]
			for r := range joined {
				joined[r] = kbJoin(joined[r], st[r])
			}
			if joined != in[s] {
				in[s] = joined
				w.push(s)
			}
		}
	})
	return in
}

// kbApply advances the state across one instruction.
func kbApply(st *kbState, i int, in isa.Instr, xlen int) {
	v := kbEval(i, in, st, xlen)
	if d := def(in); d != 0xff {
		st[d] = v
	}
}
