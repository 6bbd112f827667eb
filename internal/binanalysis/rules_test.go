package binanalysis

// A rule-level oracle for the static prover: every transfer rule is
// checked against concrete semantics, one opcode at a time, at XLEN 32
// and 64, in the style of the tristate-number verification work ("Sound,
// Precise, and Fast Abstract Interpretation with Tristate Numbers",
// CGO 2022). Opcodes are enumerated from the ISA's decode table, so a new
// opcode joins every check without anyone editing a list here, and an
// opcode a rule forgets fails exactness or precision by name.
//
// The concrete side is isa.ALU, the core's own ALU, whose operand
// routing and write-back TestConcreteALUMatchesTheCore checks on the
// pipeline, and for crash-certain bits the core itself
// (TestCrashCertainBitsFaultOnTheCore).

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"sevsim/internal/isa"
	"sevsim/internal/machine"
)

// Probe registers: every probe instruction reads a0 and a1 and writes t0
// (a store writes memory from t0).
const (
	probeRs1 = uint8(isa.RegA0)
	probeRs2 = uint8(isa.RegA1)
	probeRd  = uint8(isa.RegT0)
	probeIdx = 3 // code index of the probe, for a jump's link value
)

// probe is op over the probe registers, as the core decodes it.
func probe(op isa.Opcode, imm int16) isa.Instr {
	return isa.Decode(isa.Instr{Op: op, Rd: probeRd, Rs1: probeRs1, Rs2: probeRs2, Imm: int32(imm)}.Encode())
}

// ruleInput is one point of the oracle's space.
type ruleInput struct {
	op     isa.Opcode
	xlen   int
	x, y   uint64 // source values in SourceRegs order; a load reads y from memory
	ux, uy uint64 // the bits the abstractions of x and y leave unknown
	live   uint64 // live bits of the destination
	imm    int16
}

// abstractOf is the abstraction of v that leaves the bits u unknown.
func abstractOf(v, u, m uint64) KnownBits {
	return KnownBits{Zero: ^v&m&^u | ^m, One: v & m &^ u}
}

// concreteDest is the value in writes to its destination from source
// values v1 and v2 (for a load, v2 is the memory word it reads).
func concreteDest(in isa.Instr, idx int, v1, v2 uint64, xlen int) uint64 {
	m := xlenMask(xlen)
	switch op := in.Op; {
	case op.IsJump():
		return (machine.CodeBase + 4*uint64(idx) + 4) & m
	case op.IsLoad():
		w := 8 * op.MemSize()
		v := v2 & lowMask(w)
		if op != isa.OpLbu && w < 64 && v>>(w-1) != 0 {
			v |= ^lowMask(w) // sign-extending load
		}
		return v & m
	case op.Format() == isa.FmtI:
		v2 = isa.ImmOperand(op, int64(in.Imm))
	}
	return isa.ALU(in.Op, v1, v2, xlen) & m
}

// observe is everything in makes architecturally visible from source
// values v1 and v2: the destination value under the live mask L, the
// address and bytes of a memory access (a store writes only its own
// bytes), the three comparisons a branch decides on, a jump target, an
// output.
func observe(in isa.Instr, L, v1, v2 uint64, xlen int) [3]uint64 {
	m := xlenMask(xlen)
	addr := (v1 + uint64(int64(in.Imm))) & m
	switch op := in.Op; {
	case op.IsLoad():
		return [3]uint64{addr}
	case op.IsStore():
		return [3]uint64{addr, v2 & lowMask(8*op.MemSize()) & m}
	case op.IsBranch():
		eq := uint64(0)
		if v1&m == v2&m {
			eq = 1
		}
		return [3]uint64{eq, isa.ALU(isa.OpSlt, v1, v2, xlen), isa.ALU(isa.OpSltu, v1, v2, xlen)}
	case op == isa.OpJalr:
		return [3]uint64{addr &^ 3}
	case op == isa.OpOut:
		return [3]uint64{v1 & m}
	case in.DestReg() != 0xff:
		return [3]uint64{concreteDest(in, probeIdx, v1, v2, xlen) & L}
	}
	return [3]uint64{}
}

// bitExact holds the opcodes whose result bits each depend on a fixed
// set of operand bits whatever the values, so the demand computed by
// brute force at the two ends of the other operand's range is the exact
// demand. The value is whether the opcode is a shift, whose second
// operand is the count.
var bitExact = map[isa.Opcode]bool{
	isa.OpAnd: false, isa.OpOr: false, isa.OpXor: false,
	isa.OpAndi: false, isa.OpOri: false, isa.OpXori: false,
	isa.OpSll: true, isa.OpSrl: true, isa.OpSra: true,
	isa.OpSlli: true, isa.OpSrli: true, isa.OpSrai: true,
}

// bruteDemand is the set of bits of one operand (the first when first is
// set) whose flip changes what in makes visible, with the other operand
// at either end of its abstraction's range.
func bruteDemand(in isa.Instr, L uint64, first bool, v uint64, other KnownBits, xlen int) uint64 {
	m := xlenMask(xlen)
	var d uint64
	for _, o := range []uint64{other.One & m, m &^ other.Zero} {
		for bit := uint64(1); bit != 0 && bit <= m; bit <<= 1 {
			v1, v2, f1, f2 := v, o, v^bit, o
			if !first {
				v1, v2, f1, f2 = o, v, o, v^bit
			}
			if observe(in, L, v1, v2, xlen) != observe(in, L, f1, f2, xlen) {
				d |= bit
			}
		}
	}
	return d
}

// checkRules checks every rule at one input and reports each violation
// under the rule's name.
func checkRules(r ruleInput, fail func(rule, format string, args ...any)) {
	m := xlenMask(r.xlen)
	in := probe(r.op, r.imm)
	x, y, L := r.x&m, r.y&m, r.live&m
	a, b := abstractOf(x, r.ux, m), abstractOf(y, r.uy, m)

	if in.DestReg() != 0xff {
		// Soundness: the concrete result at members of γ(a) × γ(b) is in
		// γ of the abstract one.
		st := kbTopState(m)
		st[probeRs1], st[probeRs2] = a, b
		got := kbEval(probeIdx, in, &st, r.xlen)
		for _, v := range [][2]uint64{{x, y}, {x ^ r.ux&y, y ^ r.uy&x}} {
			if want := concreteDest(in, probeIdx, v[0], v[1], r.xlen); !got.Compatible(want, m) {
				fail("kbEval soundness", "%v on %#x, %#x gives %#x outside zero=%#x one=%#x", in, v[0], v[1], want, got.Zero, got.One)
			}
		}
		// Exactness: a fully known state gives the exact value.
		if !in.Op.IsLoad() {
			st[probeRs1], st[probeRs2] = kbConst(x, m), kbConst(y, m)
			want := concreteDest(in, probeIdx, x, y, r.xlen)
			if v, ok := kbEval(probeIdx, in, &st, r.xlen).Const(m); !ok || v != want {
				fail("kbEval exactness", "%v on %#x, %#x: known %v as %#x, want %#x", in, x, y, ok, v, want)
			}
		}
	}

	// demandMasks: a flip outside an operand's demand, with the other
	// operand concrete inside its known bits, changes nothing visible.
	s1, s2 := in.SourceRegs()
	d1, d2 := demandMasks(in, L, a, b, r.xlen)
	base := observe(in, L, x, y, r.xlen)
	for bit := uint64(1); bit != 0 && bit <= m; bit <<= 1 {
		if s1 != 0xff && d1&bit == 0 && observe(in, L, x^bit, y, r.xlen) != base {
			fail("demandMasks soundness", "%v, L=%#x, %#x, %#x: operand 1 bit %#x is outside d1=%#x but visible", in, L, x, y, bit, d1)
		}
		if s2 != 0xff && d2&bit == 0 && observe(in, L, x, y^bit, r.xlen) != base {
			fail("demandMasks soundness", "%v, L=%#x, %#x, %#x: operand 2 bit %#x is outside d2=%#x but visible", in, L, x, y, bit, d2)
		}
	}
	// Precision, where brute force gives the exact demand: the demand of
	// a shift's value operand by a known count, and of either operand of
	// bitwise logic.
	if shift, ok := bitExact[in.Op]; ok && (s2 == 0xff || r.uy&uint64(r.xlen-1) == 0 || !shift) {
		if want := bruteDemand(in, L, true, x, b, r.xlen); d1&m != want {
			fail("demandMasks precision", "%v, L=%#x, other %+v: d1=%#x, brute force %#x", in, L, b, d1, want)
		}
		if s2 != 0xff && !shift {
			if want := bruteDemand(in, L, false, y, a, r.xlen); d2&m != want {
				fail("demandMasks precision", "%v, L=%#x, other %+v: d2=%#x, brute force %#x", in, L, a, d2, want)
			}
		}
	}

	// crashCertainMask's lower bound: a memory access faults on a flip of
	// an alignment bit or of a bit above every mapped address; nothing but
	// a memory access or jalr faults on an operand value.
	cc := crashCertainMask(in, r.xlen)
	if size := in.Op.MemSize(); size > 0 {
		if want := (m &^ lowMask(addrHighBit)) | uint64(size-1); cc&want != want {
			fail("crashCertainMask lower bound", "%v: %#x lacks %#x", in, cc, want&^cc)
		}
	} else if in.Op != isa.OpJalr && cc != 0 {
		fail("crashCertainMask lower bound", "%v cannot fault on an operand, yet claims %#x", in, cc)
	}
}

// edgeValue draws a value biased to where rules break: 0, the sign bit,
// the largest signed value, all ones, and small offsets from each.
func edgeValue(rng *rand.Rand, xlen int) uint64 {
	sign := uint64(1) << (xlen - 1)
	edges := [...]uint64{0, sign, sign - 1, xlenMask(xlen), rng.Uint64()}
	v := edges[rng.IntN(len(edges))]
	if rng.IntN(2) == 0 {
		v += uint64(rng.IntN(17)) - 8
	}
	return v
}

// edgeUnknown draws a set of unknown bits: none, all, every bit from some
// position up (an address whose high bits are unknown), the bits below
// some position, or a random set.
func edgeUnknown(rng *rand.Rand, xlen int) uint64 {
	k := rng.IntN(xlen + 1)
	return [...]uint64{0, xlenMask(xlen), ^lowMask(k), lowMask(k), rng.Uint64()}[rng.IntN(5)]
}

// genRuleInput draws one edge-biased input for op at xlen.
func genRuleInput(rng *rand.Rand, op isa.Opcode, xlen int) ruleInput {
	r := ruleInput{op: op, xlen: xlen, x: edgeValue(rng, xlen), y: edgeValue(rng, xlen),
		ux: edgeUnknown(rng, xlen), uy: edgeUnknown(rng, xlen), live: edgeUnknown(rng, xlen)}
	if rng.IntN(2) == 0 {
		r.y = r.x + uint64(rng.IntN(17)) - 8 // nearby values
	}
	r.imm = [...]int16{0, 1, -1, 0x7fff, -0x8000, int16(rng.IntN(64)), int16(rng.Uint32())}[rng.IntN(7)]
	return r
}

// ruleSamples is the sweep's inputs per opcode and XLEN.
const ruleSamples = 2000

// TestTransferRules runs the oracle over every valid opcode at both
// XLENs and reports the counterexamples per rule, with the first of each.
func TestTransferRules(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	count, first := map[string]int{}, map[string]string{}
	for op := isa.Opcode(0); op < 64; op++ {
		if !op.Valid() {
			continue
		}
		for _, xlen := range []int{32, 64} {
			for n := 0; n < ruleSamples; n++ {
				checkRules(genRuleInput(rng, op, xlen), func(rule, format string, args ...any) {
					if count[rule]++; count[rule] == 1 {
						first[rule] = fmt.Sprintf("XLEN %d: ", xlen) + fmt.Sprintf(format, args...)
					}
				})
			}
		}
	}
	rules := make([]string, 0, len(count))
	for rule := range count {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	for _, rule := range rules {
		t.Errorf("%s: %d counterexamples; first: %s", rule, count[rule], first[rule])
	}
}

// FuzzTransferRules runs the same checks on fuzzer-chosen inputs.
func FuzzTransferRules(f *testing.F) {
	// A word store through a pointer loaded from memory, of which nothing
	// is known, at XLEN 64.
	f.Add(uint8(isa.OpSw), true, uint64(machine.GlobalBase), uint64(machine.GlobalBase), ^uint64(0), uint64(0), ^uint64(0), int16(0))
	f.Add(uint8(isa.OpXori), false, uint64(0x8000_0000), uint64(5), uint64(0xff), uint64(0xf0), uint64(0xffff), int16(-1))
	f.Add(uint8(isa.OpSrai), true, ^uint64(0), uint64(63), uint64(0), uint64(0), uint64(1)<<63, int16(63))
	f.Fuzz(func(t *testing.T, op uint8, wide bool, x, y, ux, uy, live uint64, imm int16) {
		r := ruleInput{op: isa.Opcode(op % 64), xlen: 32, x: x, y: y, ux: ux, uy: uy, live: live, imm: imm}
		if !r.op.Valid() {
			return
		}
		if wide {
			r.xlen = 64
		}
		checkRules(r, func(rule, format string, args ...any) { t.Errorf(rule+": "+format, args...) })
	})
}

// runProbe runs prog on cfg with a0 and a1 holding v1 and v2.
func runProbe(cfg machine.Config, prog []isa.Instr, v1, v2 uint64) machine.Result {
	mm := machine.New(cfg, &machine.Program{Name: "probe", Code: isa.Assemble(prog), Entry: machine.CodeBase, GlobalSize: 64})
	mm.Core.SetReg(probeRs1, v1)
	mm.Core.SetReg(probeRs2, v2)
	return mm.Run(100_000)
}

// TestCrashCertainBitsFaultOnTheCore flips crash-certain base bits of
// golden addresses (the start of the globals and the top of the stack for
// a memory access, the next instruction for jalr) and requires every flip
// to fault on both marches. An opcode whose golden probe itself fails,
// like ld at XLEN 32, has no golden address to flip.
func TestCrashCertainBitsFaultOnTheCore(t *testing.T) {
	for _, cfg := range machine.Configs() {
		checked := 0
		for op := isa.Opcode(0); op < 64; op++ {
			if !op.Valid() {
				continue
			}
			prog := []isa.Instr{probe(op, 0), isa.Halt()}
			mask := crashCertainMask(prog[0], cfg.CPU.XLEN)
			goldens := []uint64{machine.GlobalBase, machine.StackTop - 8}
			if op == isa.OpJalr {
				goldens = []uint64{machine.CodeBase + 4}
			}
			for _, addr := range goldens {
				if mask == 0 || runProbe(cfg, prog, addr, 0).Outcome != machine.OutcomeOK {
					continue
				}
				for bit := uint64(1); bit != 0 && bit <= mask; bit <<= 1 {
					if mask&bit == 0 {
						continue
					}
					checked++
					if res := runProbe(cfg, prog, addr^bit, 0); res.Outcome != machine.OutcomeCrash {
						t.Errorf("%s: %v at %#x with bit %#x flipped is crash-certain but ends %s", cfg.Name, prog[0], addr, bit, res.Outcome)
					}
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no crash-certain bit was flipped", cfg.Name)
		}
	}
}

// TestConcreteALUMatchesTheCore pins the oracle's concrete side to the
// core's pipeline: for each march and each pair of edge values, one
// straight-line program runs every opcode that writes a register from
// registers or an immediate (jumps aside) and outputs each result, which
// must equal concreteDest. Both evaluate through isa.ALU, so what this
// checks is the operand routing and the write-back around it.
func TestConcreteALUMatchesTheCore(t *testing.T) {
	for _, cfg := range machine.Configs() {
		xlen := cfg.CPU.XLEN
		sign := uint64(1) << (xlen - 1)
		grid := []uint64{0, 1, 63, 0x7fff, 0x8000, sign - 1, sign, xlenMask(xlen), 0x9e37_79b9_7f4a_7c15 & xlenMask(xlen)}
		for _, x := range grid {
			for _, y := range grid {
				var prog, ops []isa.Instr
				for op := isa.Opcode(0); op < 64; op++ {
					in := probe(op, int16(y))
					if !op.Valid() || in.DestReg() == 0xff || op.IsLoad() || op.IsJump() {
						continue
					}
					ops = append(ops, in)
					prog = append(prog, in, isa.Out(probeRd))
				}
				res := runProbe(cfg, append(prog, isa.Halt()), x, y)
				if res.Outcome != machine.OutcomeOK || len(res.Output) != len(ops) {
					t.Fatalf("%s: probe program ended %s with %d outputs, want %d", cfg.Name, res.Outcome, len(res.Output), len(ops))
				}
				for k, in := range ops {
					if want := concreteDest(in, probeIdx, x, y, xlen); res.Output[k] != want {
						t.Errorf("%s: %v on %#x, %#x: core %#x, concreteDest %#x", cfg.Name, in, x, y, res.Output[k], want)
					}
				}
			}
		}
	}
}
