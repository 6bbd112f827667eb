package binanalysis

import (
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/isa"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

func TestKnownBitsConstantPropagation(t *testing.T) {
	const xlen = 32
	m := xlenMask(xlen)
	a0, a1, a2 := uint8(isa.RegA0), uint8(isa.RegA1), uint8(isa.RegA2)
	prog := []isa.Instr{
		isa.I(isa.OpLui, a0, 0, 0x1234),  // a0 = 0x12340000
		isa.I(isa.OpOri, a0, a0, 0x5678), // a0 = 0x12345678
		isa.I(isa.OpAddi, a1, a0, 1),     // a1 = 0x12345679
		isa.R(isa.OpXor, a2, a0, a1),     // a2 = known
		isa.I(isa.OpAndi, a2, a2, 0xff),  // a2 = low byte
		isa.Out(a2),
		isa.Halt(),
	}
	a, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	kz, ko := computeKnownBits(a.CFG, xlen)
	// Before Out (index 5) every value is a compile-time constant.
	cases := []struct {
		reg  uint8
		want uint64
	}{
		{a0, 0x12345678},
		{a1, 0x12345679},
		{a2, (0x12345678 ^ 0x12345679) & 0xff},
	}
	for _, c := range cases {
		kb := KnownBits{Zero: kz[5*32+int(c.reg)], One: ko[5*32+int(c.reg)]}
		got, ok := kb.Const(m)
		if !ok {
			t.Fatalf("reg %d not fully known before out: %+v", c.reg, kb)
		}
		if got != c.want {
			t.Fatalf("reg %d known as %#x, want %#x", c.reg, got, c.want)
		}
	}
}

func TestKnownBitsJoinAtMerge(t *testing.T) {
	const xlen = 32
	a0, a1 := uint8(isa.RegA0), uint8(isa.RegA1)
	// Two paths assign a0 = 4 or a0 = 6: after the merge only the
	// disagreeing bit (bit 1) is unknown; bit 2 is known one, the rest
	// known zero.
	prog := []isa.Instr{
		/*0*/ isa.Branch(isa.OpBeq, a1, uint8(isa.RegZero), 2), // to 3
		/*1*/ isa.I(isa.OpAddi, a0, 0, 4),
		/*2*/ isa.Jal(0, 1), // over 3, to 4
		/*3*/ isa.I(isa.OpAddi, a0, 0, 6),
		/*4*/ isa.Out(a0),
		/*5*/ isa.Halt(),
	}
	a, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	kz, ko := computeKnownBits(a.CFG, xlen)
	kb := KnownBits{Zero: kz[4*32+int(a0)], One: ko[4*32+int(a0)]}
	if kb.One != 1<<2 {
		t.Fatalf("known-one = %#x, want %#x", kb.One, uint64(1<<2))
	}
	wantZero := ^uint64(4 | 2) // everything except bits 1 and 2
	if kb.Zero != wantZero {
		t.Fatalf("known-zero = %#x, want %#x", kb.Zero, wantZero)
	}
}

func TestKbAddMatchesConcrete(t *testing.T) {
	const xlen = 32
	m := xlenMask(xlen)
	vals := []uint64{0, 1, 2, 0xff, 0x8000_0000, 0xffff_ffff, 0x1234_5678}
	for _, x := range vals {
		for _, y := range vals {
			got := kbAdd(kbConst(x, m), kbConst(y, m), 0, xlen)
			v, ok := got.Const(m)
			if !ok {
				t.Fatalf("add(%#x,%#x) not fully known: %+v", x, y, got)
			}
			if want := (x + y) & m; v != want {
				t.Fatalf("add(%#x,%#x) = %#x, want %#x", x, y, v, want)
			}
			sub := kbAdd(kbConst(x, m), kbNot(kbConst(y, m), m), 1, xlen)
			v, ok = sub.Const(m)
			if !ok {
				t.Fatalf("sub(%#x,%#x) not fully known: %+v", x, y, sub)
			}
			if want := (x - y) & m; v != want {
				t.Fatalf("sub(%#x,%#x) = %#x, want %#x", x, y, v, want)
			}
		}
	}
}

func TestKbShiftUnknownCountStillBoundsLowBits(t *testing.T) {
	const xlen = 32
	m := xlenMask(xlen)
	// Left-shifting a value with 16 known-zero low bits by an unknown
	// count keeps those low 16 bits known zero.
	a := KnownBits{Zero: ^uint64(0xffff_0000)}
	got := kbShift(isa.OpSll, a, kbTop(m), xlen)
	if got.Zero&0xffff != 0xffff {
		t.Fatalf("low bits not known zero after shift: %+v", got)
	}
}

func TestKbCompareDecidedByIntervals(t *testing.T) {
	const xlen = 32
	m := xlenMask(xlen)
	small := kbConst(3, m)
	big := KnownBits{Zero: ^uint64(0xff00), One: 0x100} // in [0x100, 0xff00]
	lt := kbCompare(small, big, false, xlen)
	if v, ok := lt.Const(m); !ok || v != 1 {
		t.Fatalf("3 < [0x100,0xff00] undecided: %+v", lt)
	}
	ge := kbCompare(big, small, false, xlen)
	if v, ok := ge.Const(m); !ok || v != 0 {
		t.Fatalf("[0x100,0xff00] < 3 undecided: %+v", ge)
	}
}

func TestDemandMasksByteTruncationAndShifts(t *testing.T) {
	const xlen = 32
	m := xlenMask(xlen)
	top := kbTop(m)
	// andi: only the immediate's bits of the source matter.
	d1, d2 := demandMasks(isa.I(isa.OpAndi, 4, 3, 0xff), m, top, top, xlen)
	if d1 != 0xff || d2 != 0 {
		t.Fatalf("andi demand = %#x,%#x want 0xff,0", d1, d2)
	}
	// srli by 24: only the top byte of the source can reach the result.
	d1, _ = demandMasks(isa.I(isa.OpSrli, 4, 3, 24), m, top, top, xlen)
	if d1 != 0xff00_0000 {
		t.Fatalf("srli-24 demand = %#x want 0xff000000", d1)
	}
	// slli by 24 under a full live mask: top live bits fall off.
	d1, _ = demandMasks(isa.I(isa.OpSlli, 4, 3, 24), m, top, top, xlen)
	if d1 != 0x0000_00ff {
		t.Fatalf("slli-24 demand = %#x want 0xff", d1)
	}
	// srai by 31 keeps only the sign bit relevant.
	d1, _ = demandMasks(isa.I(isa.OpSrai, 4, 3, 31), m, top, top, xlen)
	if d1 != 1<<31 {
		t.Fatalf("srai-31 demand = %#x want %#x", d1, uint64(1)<<31)
	}
	// Dead destination demands nothing anywhere.
	for _, in := range []isa.Instr{
		isa.R(isa.OpAdd, 4, 3, 5), isa.R(isa.OpDiv, 4, 3, 5),
		isa.R(isa.OpSll, 4, 3, 5), isa.R(isa.OpSltu, 4, 3, 5),
	} {
		d1, d2 := demandMasks(in, 0, top, top, xlen)
		if d1 != 0 || d2 != 0 {
			t.Fatalf("%v with dead dest demands %#x,%#x", in, d1, d2)
		}
	}
	// and with a known-zero other operand annihilates the demand.
	zeroed := KnownBits{Zero: ^uint64(0) | m} // all bits known zero
	d1, _ = demandMasks(isa.R(isa.OpAnd, 4, 3, 5), m, top, zeroed, xlen)
	if d1 != 0 {
		t.Fatalf("and with known-zero rs2 still demands %#x of rs1", d1)
	}
}

// TestDeadBitsSubsumeDeadRegisters checks the structural guarantee on
// a real compiled binary: wherever the register-granular analysis
// proves a register dead, the bit-granular one reports the full mask,
// and live registers' dead-bit masks never claim a bit the register
// analysis proves live... (they may claim more bits dead — that is the
// point — but never fewer than zero on live paths).
func TestDeadBitsSubsumeDeadRegisters(t *testing.T) {
	bench, err := workloads.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.CortexA15Like()
	xlen, nregs := cfg.CPU.XLEN, cfg.CPU.NumArchRegs
	for _, level := range compiler.Levels {
		prog, err := compiler.Compile(bench.Source(bench.TestSize), bench.Name, level,
			compiler.Target{XLEN: xlen, NumArchRegs: nregs})
		if err != nil {
			t.Fatal(err)
		}
		a, err := AnalyzeWords(prog.Code)
		if err != nil {
			t.Fatal(err)
		}
		b := a.Bits(xlen)
		for pt := range a.Live {
			dead := a.Dead(pt, nregs)
			for r := uint8(1); int(r) < nregs; r++ {
				db := b.DeadBits(pt, r)
				if dead.Has(r) && db != b.Mask {
					t.Fatalf("%s point %d: reg %d register-dead but bit mask %#x", level, pt, r, db)
				}
			}
		}
	}
}

func TestBitsCachePerXLEN(t *testing.T) {
	prog := []isa.Instr{isa.Out(uint8(isa.RegA0)), isa.Halt()}
	a, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	b32, b64 := a.Bits(32), a.Bits(64)
	if b32.Mask != 1<<32-1 || b64.Mask != ^uint64(0) {
		t.Fatal("Bits mask not per XLEN")
	}
}
