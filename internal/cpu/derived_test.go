package cpu

import (
	"fmt"
	"math/bits"
	"testing"

	"sevsim/internal/isa"
)

// checkDerived recomputes every derived mask and index from the
// authoritative slabs and reports the first disagreement. The derived indices are
// never snapshotted or compared, so nothing else would notice one
// drifting from the state it mirrors until a wakeup or a load went
// missing.
func (c *Core) checkDerived() error {
	var valid, ready uint64
	for i, f := range c.iqFlags {
		if f&qValid != 0 {
			valid |= 1 << uint(i)
		}
		if f&(qValid|qIssued|qRdy1|qRdy2) == qValid|qRdy1|qRdy2 {
			ready |= 1 << uint(i)
		}
	}
	if c.iqValid != valid {
		return fmt.Errorf("cycle %d: iqValid %#x, slab says %#x", c.cycle, c.iqValid, valid)
	}
	if c.iqReady != ready {
		return fmt.Errorf("cycle %d: iqReady %#x, slab says %#x", c.cycle, c.iqReady, ready)
	}
	if c.iqCount != bits.OnesCount64(valid) {
		return fmt.Errorf("cycle %d: iqCount %d, %d valid slots", c.cycle, c.iqCount, bits.OnesCount64(valid))
	}
	// The waiter index may hold more than the slab justifies, never
	// less: every valid entry with a clear ready bit must be found under
	// that operand's tag (tags no register file entry answers to cannot
	// broadcast and are not indexed).
	for m := valid &^ ready; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		for _, op := range [2]struct {
			rdy uint8
			tag uint16
		}{{qRdy1, c.iqSrc1[i]}, {qRdy2, c.iqSrc2[i]}} {
			if c.iqFlags[i]&op.rdy == 0 && int(op.tag) < len(c.iqWaiters) && c.iqWaiters[op.tag]&(1<<uint(i)) == 0 {
				return fmt.Errorf("cycle %d: issue-queue slot %d waits on tag %d but iqWaiters[%d] = %#x",
					c.cycle, i, op.tag, op.tag, c.iqWaiters[op.tag])
			}
		}
	}
	// lqPending only has to be right inside the occupied window:
	// loadStep masks the rest away.
	var pending uint64
	for i, f := range c.lqFlags {
		if f&(lValid|lAddrReady|lDone|lInflight) == lValid|lAddrReady {
			pending |= 1 << uint(i)
		}
	}
	window := ringMask(c.lqHead, c.lqCount, c.cfg.LQSize)
	if c.lqCount == 0 {
		window = 0
	}
	if (c.lqPending^pending)&window != 0 {
		return fmt.Errorf("cycle %d: lqPending %#x, slab says %#x inside window %#x", c.cycle, c.lqPending, pending, window)
	}
	// Every queued fetch slot travels with the facts of its own decode.
	for n := 0; n < c.fetchLen; n++ {
		i := (c.fetchHead + n) % len(c.fetchQ)
		if slot := &c.fetchQ[i]; !slot.FetchFault && c.fetchFacts[i] != c.factsOf(slot.In) {
			return fmt.Errorf("cycle %d: fetch-queue slot %d holds %s with facts %+v, want %+v",
				c.cycle, i, slot.In, c.fetchFacts[i], c.factsOf(slot.In))
		}
	}
	// A pending load left out of lqRetry must be one the store-queue
	// check still blocks, filed under the store that blocks it so that
	// store's execution or drain brings it back.
	for m := pending & window &^ c.lqRetry; m != 0; m &= m - 1 {
		li := bits.TrailingZeros64(m)
		blocker, _, _ := c.storeCheck(li)
		if blocker < 0 {
			return fmt.Errorf("cycle %d: load-queue slot %d is free to proceed but not in lqRetry %#x", c.cycle, li, c.lqRetry)
		}
		if c.lqWaitSQ[blocker]&(1<<uint(li)) == 0 {
			return fmt.Errorf("cycle %d: load-queue slot %d is blocked by store-queue slot %d but lqWaitSQ[%d] = %#x",
				c.cycle, li, blocker, blocker, c.lqWaitSQ[blocker])
		}
	}
	return nil
}

// CheckDerived exposes checkDerived to the external test package, which
// can import the machine and compiler layers this package cannot.
func (c *Core) CheckDerived() error { return c.checkDerived() }

// stepChecked advances one cycle and fails the test when a derived
// index has drifted.
func stepChecked(t *testing.T, c *Core) bool {
	t.Helper()
	more := c.Step()
	if err := c.checkDerived(); err != nil {
		t.Fatal(err)
	}
	return more
}

func runChecked(t *testing.T, c *Core, max uint64) {
	t.Helper()
	for c.Cycle() < max && stepChecked(t, c) {
	}
}

// iqSlotOf returns the valid issue-queue slot holding op, stepping the
// core until the instruction has been renamed.
func iqSlotOf(t *testing.T, c *Core, op isa.Opcode) int {
	t.Helper()
	for c.Cycle() < 1000 {
		for m := c.iqValid; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros64(m); isa.Opcode(c.iqOp[i]) == op {
				return i
			}
		}
		if !stepChecked(t, c) {
			break
		}
	}
	t.Fatalf("no valid issue-queue entry for %s", op.Name())
	return -1
}

func TestIQSrcTagFlipWakesOnNewTag(t *testing.T) {
	// The slli waits on the first div's tag. Flipping the bits in which
	// that tag differs from the second div's destination re-points it:
	// the entry must wake when *that* tag broadcasts and compute from
	// its value — the wakeup matches the slab's tag bits, not whatever
	// the entry was waiting on when it was inserted.
	c := testCore([]isa.Instr{
		isa.I(isa.OpAddi, isa.RegA0, isa.RegZero, 84),
		isa.I(isa.OpAddi, isa.RegA1, isa.RegZero, 2),
		isa.R(isa.OpDiv, isa.RegA2, isa.RegA0, isa.RegA1), // 42
		isa.R(isa.OpDiv, isa.RegA3, isa.RegA1, isa.RegA1), // 1
		isa.I(isa.OpSlli, isa.RegT0, isa.RegA2, 1),        // 84 unfaulted, 2 once re-pointed
		isa.Out(isa.RegT0),
		isa.Halt(),
	})
	i := iqSlotOf(t, c, isa.OpSlli)
	from, to := c.rat[isa.RegA2], c.rat[isa.RegA3]
	if c.iqSrc1[i] != from || c.iqFlags[i]&qRdy1 != 0 {
		t.Fatalf("slli entry: src1 %d flags %#x, want tag %d and not ready", c.iqSrc1[i], c.iqFlags[i], from)
	}
	if c.prfReady[to] != 0 {
		t.Fatalf("tag %d already broadcast; the flip would come too late", to)
	}
	for d := from ^ to; d != 0; d &= d - 1 {
		c.FlipBit(FieldIQSrc, uint64(i)*uint64(c.iqSrcEntryBits())+uint64(bits.TrailingZeros16(d)))
	}
	if c.iqSrc1[i] != to {
		t.Fatalf("flip left src1 at %d, want %d", c.iqSrc1[i], to)
	}
	if err := c.checkDerived(); err != nil {
		t.Fatal(err)
	}
	runChecked(t, c, 10000)
	if !c.Halted() {
		t.Fatal("did not halt: the re-pointed entry never woke")
	}
	if got := c.Output()[0]; got != 2 {
		t.Errorf("output = %d, want 2 (the second div's quotient shifted)", got)
	}
}

func TestIQReadyBitFlippedOffIsRewoken(t *testing.T) {
	// The add's first operand (a0) is ready at insert; its second waits
	// on the div. Clearing the first ready bit leaves an entry waiting
	// on a tag that already broadcast. Nothing in this program
	// broadcasts it again, so the test does: a second broadcast of the
	// same tag must set the bit again, after which the run completes
	// with the fault-free answer.
	c := testCore([]isa.Instr{
		isa.I(isa.OpAddi, isa.RegA0, isa.RegZero, 84),
		isa.I(isa.OpAddi, isa.RegA1, isa.RegZero, 2),
		isa.R(isa.OpDiv, isa.RegA2, isa.RegA0, isa.RegA1), // 42
		isa.R(isa.OpAdd, isa.RegA3, isa.RegA0, isa.RegA2), // 126
		isa.Out(isa.RegA3),
		isa.Halt(),
	})
	i := iqSlotOf(t, c, isa.OpAdd)
	for c.iqFlags[i]&qRdy1 == 0 {
		if !stepChecked(t, c) {
			t.Fatal("run ended before the add's first operand was ready")
		}
	}
	if isa.Opcode(c.iqOp[i]) != isa.OpAdd || c.iqFlags[i]&(qValid|qRdy2) != qValid {
		t.Fatalf("add entry flags %#x: want valid and still waiting on the div", c.iqFlags[i])
	}
	tag := c.iqSrc1[i]
	c.FlipBit(FieldIQSrc, uint64(i)*uint64(c.iqSrcEntryBits())+physTagBits)
	if c.iqFlags[i]&qRdy1 != 0 || c.iqReady&(1<<uint(i)) != 0 {
		t.Fatalf("flip left the entry ready: flags %#x iqReady %#x", c.iqFlags[i], c.iqReady)
	}
	if err := c.checkDerived(); err != nil {
		t.Fatal(err)
	}
	c.wakeup(tag)
	if c.iqFlags[i]&qRdy1 == 0 {
		t.Fatal("a second broadcast of the tag did not set the cleared ready bit again")
	}
	if err := c.checkDerived(); err != nil {
		t.Fatal(err)
	}
	runChecked(t, c, 10000)
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	if got := c.Output()[0]; got != 126 {
		t.Errorf("output = %d, want 126", got)
	}
}

// blockedLoad runs the store/load pair below until the load's address
// is known while the older store, whose address hangs off a div, has
// not executed: the load is pending and blocked on the store-queue
// entry it returns.
func blockedLoad(t *testing.T) (c *Core, li, si int) {
	t.Helper()
	c = testCore([]isa.Instr{
		isa.I(isa.OpLui, isa.RegA0, 0, 0x10), // 0x100000, the data region
		isa.I(isa.OpAddi, isa.RegA1, isa.RegZero, 64),
		isa.I(isa.OpAddi, isa.RegA2, isa.RegZero, 2),
		isa.R(isa.OpDiv, isa.RegA3, isa.RegA1, isa.RegA2), // 32
		isa.R(isa.OpAdd, isa.RegA3, isa.RegA0, isa.RegA3), // 0x100020, late
		isa.Store(isa.OpSw, isa.RegA1, isa.RegA3, 0),      // mem[0x100020] = 64
		isa.Load(isa.OpLw, isa.RegT0, isa.RegA0, 0x20),    // same address, known early
		isa.Out(isa.RegT0),
		isa.Halt(),
	})
	for c.Cycle() < 1000 {
		if c.lqCount == 1 && c.sqCount == 1 && c.lqPending&(1<<uint(c.lqHead)) != 0 {
			li, si = c.lqHead, c.sqHead
			if c.sqFlags[si]&(sValid|sReady) != sValid {
				t.Fatalf("store entry flags %#x: want valid, address unknown", c.sqFlags[si])
			}
			// Let the load meet the unready store at least once.
			stepChecked(t, c)
			stepChecked(t, c)
			if c.lqFlags[li]&(lDone|lInflight) != 0 || c.sqFlags[si]&sReady != 0 {
				t.Fatalf("load flags %#x store flags %#x: want the load still blocked", c.lqFlags[li], c.sqFlags[si])
			}
			return c, li, si
		}
		if !stepChecked(t, c) {
			break
		}
	}
	t.Fatal("never saw the load pending behind the unready store")
	return nil, 0, 0
}

func TestBlockedLoadReevaluatesAfterSQFlip(t *testing.T) {
	// Clearing the blocking store's valid bit removes the reason the
	// load waits: the very next cycle must perform it (reading memory's
	// zero, since the store has not drained), not leave it parked until
	// the store executes.
	c, li, si := blockedLoad(t)
	c.FlipBit(FieldSQ, uint64(si)*uint64(c.sqEntryBits())+uint64(c.sqEntryBits())-2)
	if c.sqFlags[si]&sValid != 0 {
		t.Fatalf("flip left the store valid: flags %#x", c.sqFlags[si])
	}
	if err := c.checkDerived(); err != nil {
		t.Fatal(err)
	}
	stepChecked(t, c)
	if c.lqFlags[li]&lInflight == 0 {
		t.Fatalf("load flags %#x one cycle after the flip: want in flight", c.lqFlags[li])
	}
}

func TestBlockedLoadReevaluatesAfterLQFlip(t *testing.T) {
	// Flipping the load's done bit takes it out of the pending set;
	// flipping it back must put it back under the store-queue check it
	// was blocked on, and the run must still forward the store's value.
	c, li, _ := blockedLoad(t)
	done := uint64(li)*uint64(c.lqEntryBits()) + uint64(c.lqEntryBits()) - 1
	c.FlipBit(FieldLQ, done)
	if c.lqPending&(1<<uint(li)) != 0 {
		t.Fatal("a done load is still pending")
	}
	stepChecked(t, c)
	c.FlipBit(FieldLQ, done)
	if c.lqPending&(1<<uint(li)) == 0 {
		t.Fatal("clearing done again did not make the load pending")
	}
	if err := c.checkDerived(); err != nil {
		t.Fatal(err)
	}
	runChecked(t, c, 10000)
	if !c.Halted() {
		t.Fatal("did not halt: the load never re-evaluated")
	}
	if got := c.Output()[0]; got != 64 {
		t.Errorf("output = %d, want the forwarded 64", got)
	}
}

func TestBlockedLoadProceedsWhenStoreExecutes(t *testing.T) {
	// The unfaulted path of the same pair: the store's address arrives,
	// the load forwards from it.
	c, _, _ := blockedLoad(t)
	runChecked(t, c, 10000)
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	if got := c.Output()[0]; got != 64 {
		t.Errorf("output = %d, want the forwarded 64", got)
	}
}

func TestRenameFactsMatchISA(t *testing.T) {
	// factsOf must say about every encoding exactly what rename used to
	// work out per dynamic instruction from the isa package, on both
	// register-file sizes and word widths.
	for _, shape := range []struct{ xlen, regs int }{{32, 16}, {64, 32}} {
		cfg := testConfig()
		cfg.XLEN, cfg.NumArchRegs = shape.xlen, shape.regs
		c := &Core{cfg: cfg}
		for op := 0; op < 64; op++ {
			for _, regs := range [][3]uint32{{0, 0, 0}, {3, 4, 5}, {15, 15, 15}, {16, 1, 1}, {1, 16, 1}, {1, 1, 16}, {31, 31, 31}} {
				word := uint32(op)<<26 | regs[0]<<21 | regs[1]<<16 | regs[2]<<11
				in := isa.Decode(word)
				f := c.factsOf(in)
				s1, s2 := in.SourceRegs()
				illegal := !in.Op.Valid() || c.badRegs(in, s1, s2) ||
					((in.Op == isa.OpLd || in.Op == isa.OpSd) && shape.xlen == 32)
				if f.illegal != illegal {
					t.Errorf("xlen %d %s: illegal = %v, want %v", shape.xlen, in, f.illegal, illegal)
				}
				if illegal {
					continue
				}
				var rob uint8
				if in.Op.IsLoad() {
					rob |= rIsLoad
				}
				if in.Op.IsStore() {
					rob |= rIsStore
				}
				if in.Op.IsBranch() || in.Op == isa.OpJalr {
					rob |= rIsBranch
				}
				if in.Op == isa.OpHalt || in.Op == isa.OpNop {
					rob |= rDone
				}
				if in.Op == isa.OpJal {
					rob |= rResolved | rActTaken
				}
				var lq uint8
				if in.Op.IsLoad() {
					lq = lValid
					if in.Op != isa.OpLbu {
						lq |= lSignExt
					}
				}
				want := renameFacts{src1: s1, src2: s2, dest: in.DestReg(), memSize: uint8(in.Op.MemSize()), rob: rob, lq: lq}
				if f != want {
					t.Errorf("xlen %d %s: facts %+v, want %+v", shape.xlen, in, f, want)
				}
			}
		}
	}
}
