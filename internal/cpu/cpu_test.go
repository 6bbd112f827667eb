package cpu

import (
	"slices"
	"testing"

	"sevsim/internal/isa"
	"sevsim/internal/mem"
	"sevsim/internal/simerr"
)

func testConfig() Config {
	return Config{
		Name: "test", XLEN: 32, NumArchRegs: 16, NumPhysRegs: 64,
		ROBSize: 16, IQSize: 8, LQSize: 4, SQSize: 4,
		FetchWidth: 2, IssueWidth: 4, CommitWidth: 2, WBWidth: 4,
		FetchQueueSize: 8, ALULat: 1, MulLat: 3, DivLat: 10,
		BimodalSize: 64, BTBSize: 16, RASSize: 4, StoreForwarding: true,
	}
}

func testCore(prog []isa.Instr) *Core {
	m := mem.NewMemory(50)
	m.Map(mem.Region{Name: "code", Base: 0x1000, Size: 0x4000, Perm: mem.PermR | mem.PermX})
	m.Map(mem.Region{Name: "data", Base: 0x100000, Size: 0x10000, Perm: mem.PermR | mem.PermW})
	m.Map(mem.Region{Name: "stack", Base: 0x200000, Size: 0x10000, Perm: mem.PermR | mem.PermW})
	image := make([]byte, len(prog)*4)
	for i, in := range prog {
		w := in.Encode()
		image[i*4] = byte(w)
		image[i*4+1] = byte(w >> 8)
		image[i*4+2] = byte(w >> 16)
		image[i*4+3] = byte(w >> 24)
	}
	m.LoadImage(0x1000, image)
	l2 := mem.NewCache(mem.CacheConfig{Name: "l2", Size: 16384, Ways: 4, LineSize: 64, HitLatency: 8, AddrBits: 32}, m)
	l1i := mem.NewCache(mem.CacheConfig{Name: "l1i", Size: 2048, Ways: 2, LineSize: 64, HitLatency: 1, AddrBits: 32, ReadOnly: true}, l2)
	l1d := mem.NewCache(mem.CacheConfig{Name: "l1d", Size: 2048, Ways: 2, LineSize: 64, HitLatency: 2, AddrBits: 32}, l2)
	c := NewCore(testConfig(), m, l1i, l1d, 0x1000)
	c.SetReg(isa.RegSP, 0x210000)
	return c
}

func run(c *Core, max uint64) {
	for c.Cycle() < max && c.Step() {
	}
}

func TestFieldBitsMatchLayout(t *testing.T) {
	c := testCore([]isa.Instr{isa.Halt()})
	// PRF: 64 regs x 32 bits.
	if got := c.FieldBits(FieldPRF); got != 64*32 {
		t.Errorf("PRF bits = %d", got)
	}
	// IQ source: 8 entries x 2*(8 tag + 1 ready).
	if got := c.FieldBits(FieldIQSrc); got != 8*18 {
		t.Errorf("IQ.src bits = %d", got)
	}
	// ROB index is 4 bits for 16 entries.
	if got := c.FieldBits(FieldIQDst); got != 8*(8+4) {
		t.Errorf("IQ.dst bits = %d", got)
	}
	// LQ: 4 entries x (32 addr + 8 tag + 4 rob + 3 state).
	if got := c.FieldBits(FieldLQ); got != 4*(32+8+4+3) {
		t.Errorf("LQ bits = %d", got)
	}
	// SQ: 4 entries x (2*32 + 4 + 2).
	if got := c.FieldBits(FieldSQ); got != 4*(64+4+2) {
		t.Errorf("SQ bits = %d", got)
	}
	if got := c.FieldBits(FieldROBPC); got != 16*32 {
		t.Errorf("ROB.pc bits = %d", got)
	}
	if got := c.FieldBits(FieldROBDest); got != 16*8 {
		t.Errorf("ROB.dest bits = %d", got)
	}
	if got := c.FieldBits(FieldROBCtrl); got != 16*12 {
		t.Errorf("ROB.ctrl bits = %d", got)
	}
}

func TestFieldNames(t *testing.T) {
	want := map[Field]string{
		FieldPRF: "RF", FieldIQSrc: "IQ.src", FieldIQDst: "IQ.dst",
		FieldLQ: "LQ", FieldSQ: "SQ", FieldROBPC: "ROB.pc",
		FieldROBDest: "ROB.dest", FieldROBOld: "ROB.old", FieldROBCtrl: "ROB.ctrl",
	}
	for f, name := range want {
		if f.String() != name {
			t.Errorf("Field(%d) = %q, want %q", f, f.String(), name)
		}
	}
}

func TestPRFFlipChangesValue(t *testing.T) {
	// r3 (a0) starts mapped at phys 3; flipping bit 4 of phys 3 before
	// the program reads it must change the output by 16.
	c := testCore([]isa.Instr{
		isa.I(isa.OpAddi, isa.RegA1, isa.RegA0, 0), // a1 = a0
		isa.Out(isa.RegA1),
		isa.Halt(),
	})
	c.FlipBit(FieldPRF, uint64(isa.RegA0)*32+4)
	run(c, 10000)
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	if got := c.Output()[0]; got != 16 {
		t.Errorf("output = %d, want 16", got)
	}
}

func TestPRFFlipOnFreeRegisterMasked(t *testing.T) {
	// Flipping a never-allocated physical register must not change the
	// program result.
	c := testCore([]isa.Instr{
		isa.I(isa.OpAddi, isa.RegA0, isa.RegZero, 7),
		isa.Out(isa.RegA0),
		isa.Halt(),
	})
	c.FlipBit(FieldPRF, uint64(60)*32+1) // phys 60: far above arch regs
	run(c, 10000)
	if got := c.Output()[0]; got != 7 {
		t.Errorf("output = %d, want 7", got)
	}
}

func TestIllegalFieldPanics(t *testing.T) {
	c := testCore([]isa.Instr{isa.Halt()})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected assert")
		} else if _, ok := r.(*simerr.Assert); !ok {
			panic(r)
		}
	}()
	c.FieldBits(Field(99))
}

func TestPredictorBimodal(t *testing.T) {
	c := testCore([]isa.Instr{isa.Halt()})
	pc := uint64(0x1000)
	if c.predictCond(pc) {
		t.Error("initial prediction should be not-taken (weak)")
	}
	c.updateCond(pc, true)
	c.updateCond(pc, true)
	if !c.predictCond(pc) {
		t.Error("after two taken outcomes, predict taken")
	}
	c.updateCond(pc, false)
	c.updateCond(pc, false)
	c.updateCond(pc, false)
	if c.predictCond(pc) {
		t.Error("after three not-taken outcomes, predict not-taken")
	}
}

func TestPredictorBTB(t *testing.T) {
	c := testCore([]isa.Instr{isa.Halt()})
	if _, ok := c.predictIndirect(0x1000); ok {
		t.Error("cold BTB should miss")
	}
	c.updateIndirect(0x1000, 0x2000)
	if tgt, ok := c.predictIndirect(0x1000); !ok || tgt != 0x2000 {
		t.Errorf("BTB = %#x, %v", tgt, ok)
	}
}

func TestPredictorRAS(t *testing.T) {
	c := testCore([]isa.Instr{isa.Halt()})
	if _, ok := c.popRAS(); ok {
		t.Error("empty RAS should miss")
	}
	c.pushRAS(0x1004)
	c.pushRAS(0x2004)
	if v, ok := c.popRAS(); !ok || v != 0x2004 {
		t.Errorf("RAS pop = %#x", v)
	}
	if v, ok := c.popRAS(); !ok || v != 0x1004 {
		t.Errorf("RAS pop 2 = %#x", v)
	}
}

func TestROBCircularity(t *testing.T) {
	c := testCore([]isa.Instr{isa.Halt()})
	n := c.cfg.ROBSize
	for i := 0; i < n; i++ {
		idx := c.robAlloc()
		c.robSeq[idx] = uint64(i + 1)
	}
	if c.robCount != n {
		t.Fatal("should be full")
	}
	// Retire two from the head the way commit does; slot bytes stay in
	// place (dead but injectable).
	c.robHead = (c.robHead + 1) % n
	c.robCount--
	c.robHead = (c.robHead + 1) % n
	c.robCount--
	if c.robSeq[0] != 1 || c.robSeq[1] != 2 {
		t.Error("retired slot bytes should stay in place")
	}
	idx := c.robAlloc()
	if idx != 0 {
		t.Errorf("wraparound index = %d", idx)
	}
	// robAlloc no longer clears the slot: the recycled bytes survive
	// until the caller overwrites every field (the rename paths do).
	if c.robSeq[idx] != 1 {
		t.Error("recycled slot must keep its bytes until the caller writes them")
	}
	if c.robSeq[c.robHead] != 3 {
		t.Errorf("head seq = %d", c.robSeq[c.robHead])
	}
}

func TestFreeListLIFO(t *testing.T) {
	c := testCore([]isa.Instr{isa.Halt()})
	before := c.freeCount
	a := c.popFree()
	b := c.popFree()
	if a == b {
		t.Fatalf("popFree returned %d twice", a)
	}
	if c.prfAlloc[a] == 0 || c.prfReady[a] != 0 {
		t.Error("popFree must mark the register allocated and not-ready")
	}
	c.freePhys(b)
	c.freePhys(a)
	if c.freeCount != before {
		t.Errorf("freeCount = %d, want %d", c.freeCount, before)
	}
	if got := c.popFree(); got != a {
		t.Errorf("free list is not LIFO: popped %d, want %d", got, a)
	}
	c.freePhys(a)
}

func TestRestoreMismatchedConfigPanics(t *testing.T) {
	// A snapshot from a differently configured core must be rejected
	// loudly: the old per-field bare copies silently truncated (e.g. a
	// 64-phys-reg snapshot restored into a 32-phys-reg core kept half
	// the registers stale), corrupting the run instead of failing it.
	big := testCore([]isa.Instr{isa.Halt()})
	s := big.Snapshot()
	smallCfg := testConfig()
	smallCfg.NumPhysRegs = 32
	m := mem.NewMemory(50)
	m.Map(mem.Region{Name: "code", Base: 0x1000, Size: 0x4000, Perm: mem.PermR | mem.PermX})
	l2 := mem.NewCache(mem.CacheConfig{Name: "l2", Size: 16384, Ways: 4, LineSize: 64, HitLatency: 8, AddrBits: 32}, m)
	l1i := mem.NewCache(mem.CacheConfig{Name: "l1i", Size: 2048, Ways: 2, LineSize: 64, HitLatency: 1, AddrBits: 32, ReadOnly: true}, l2)
	l1d := mem.NewCache(mem.CacheConfig{Name: "l1d", Size: 2048, Ways: 2, LineSize: 64, HitLatency: 2, AddrBits: 32}, l2)
	small := NewCore(smallCfg, m, l1i, l1d, 0x1000)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("restore from a mismatched snapshot must assert")
		} else if _, ok := r.(*simerr.Assert); !ok {
			panic(r)
		}
	}()
	small.Restore(s)
}

func TestSnapshotRoundTripStrictEqual(t *testing.T) {
	// Run mid-program, snapshot, perturb, restore: the restored core's
	// snapshot must be bit-identical (strict Equal, dead state included).
	c := testCore([]isa.Instr{
		isa.I(isa.OpAddi, isa.RegA0, isa.RegZero, 5),
		isa.R(isa.OpMul, isa.RegA1, isa.RegA0, isa.RegA0),
		isa.Out(isa.RegA1),
		isa.Halt(),
	})
	for i := 0; i < 3; i++ {
		c.Step()
	}
	s := c.Snapshot()
	run(c, 10000)
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	c.Restore(s)
	s2 := c.Snapshot()
	if !s.Equal(s2) {
		t.Fatal("Restore(Snapshot()) did not round-trip bit-exactly")
	}
	if !c.StateEquals(s) {
		t.Fatal("restored core must StateEquals its own snapshot")
	}
	// The restored core must replay to the same architectural result.
	run(c, 10000)
	if got := c.Output()[0]; got != 25 {
		t.Errorf("output after restore = %d, want 25", got)
	}
	s.Release()
	s2.Release()
}

func TestStatsIPCZeroCycles(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Error("IPC of empty stats should be 0")
	}
}

func TestIQDstFlipOutOfRangeAsserts(t *testing.T) {
	// A program whose IQ entry gets a corrupted ROB index should either
	// mask (entry unused) or assert; drive a case that must assert: set
	// all ROB-index bits of every IQ entry mid-flight.
	prog := []isa.Instr{
		isa.I(isa.OpAddi, isa.RegA0, isa.RegZero, 1),
		isa.R(isa.OpMul, isa.RegA1, isa.RegA0, isa.RegA0),
		isa.R(isa.OpMul, isa.RegA2, isa.RegA1, isa.RegA1),
		isa.Out(isa.RegA2),
		isa.Halt(),
	}
	asserted := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*simerr.Assert); ok {
					asserted = true
					return
				}
				panic(r)
			}
		}()
		c := testCore(prog)
		// Step a few cycles to get entries in flight, then corrupt the
		// ROB linkage of every IQ slot.
		for i := 0; i < 4; i++ {
			c.Step()
		}
		per := uint64(c.iqDstEntryBits())
		for e := uint64(0); e < 8; e++ {
			for bit := uint64(8); bit < per; bit++ { // all robIdx bits
				c.FlipBit(FieldIQDst, e*per+bit)
			}
		}
		run(c, 10000)
	}()
	if !asserted {
		t.Log("note: corrupted IQ linkage did not assert this time (entries may have been empty)")
	}
}

// TestInflightPastROB: the in-flight buffer holds ROBSize ops, and a
// fault can push more. Pushing past it grows the buffer in push order,
// and Snapshot and Restore carry every op into a core whose buffer is
// still the constructed size.
func TestInflightPastROB(t *testing.T) {
	prog := []isa.Instr{isa.Halt()}
	c := testCore(prog)
	n := c.cfg.ROBSize + 5
	var want []inflightOp
	for i := 0; i < n; i++ {
		op := inflightOp{DoneAt: ^uint64(0) - 1, Dest: noPhys, Seq: uint64(n - i)}
		c.pushInflight(op)
		want = append(want, op)
	}
	if !slices.Equal(c.inflight[:c.nInflight], want) || cap(c.dueBuf) < c.nInflight {
		t.Fatalf("%d ops in flight, due buffer %d, want %d in push order", c.nInflight, cap(c.dueBuf), n)
	}
	s := c.Snapshot()
	defer s.Release()
	d := testCore(prog)
	d.Restore(s)
	if !slices.Equal(d.inflight[:d.nInflight], want) || cap(d.dueBuf) < d.nInflight || !d.StateEquals(s) {
		t.Fatalf("restored %d ops in flight, due buffer %d, want %d", d.nInflight, cap(d.dueBuf), n)
	}
	d.pushInflight(inflightOp{Seq: 1})
	if d.nInflight != n+1 || d.inflight[n].Seq != 1 || d.StateEquals(s) {
		t.Fatalf("push after restore: %d ops in flight", d.nInflight)
	}
}
