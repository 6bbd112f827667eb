package cpu

import (
	"math/bits"

	"sevsim/internal/isa"
	"sevsim/internal/mem"
	"sevsim/internal/simerr"
)

// Stats aggregates pipeline events and structure occupancy over a run.
// Occupancy sums divided by cycles give average utilization, which is
// the mechanism behind the paper's AVF observations (e.g. optimized code
// keeps more physical registers live).
type Stats struct {
	Cycles      uint64
	Committed   uint64
	Fetched     uint64
	Mispredicts uint64
	Branches    uint64
	Loads       uint64
	Stores      uint64

	ROBOccupancy uint64 // sum over cycles of occupied ROB entries
	IQOccupancy  uint64
	LQOccupancy  uint64
	SQOccupancy  uint64
	PRFLive      uint64 // sum over cycles of allocated physical registers
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// predecodeSlots sizes the direct-mapped predecode memo (frontend.go). A
// power of two; 4096 entries cover every distinct word of the built-in
// benchmarks with few conflicts.
const predecodeSlots = 4096

// Core is one out-of-order processor core.
//
// The fixed-size hot state lives in the embedded soa slabs
// (structures.go); ring positions, counters, and the variable-length
// queues are ordinary fields. Every field has a row in
// TestCoreFieldTable (fieldtable_test.go) saying whether Snapshot/Restore
// carry it and StateEquals compares it, and why; the test perturbs each
// field and checks that the methods do what its row says, so a new
// field cannot silently break the checkpoint and convergence guarantees.
type Core struct {
	cfg Config

	// The word width as the ALU wants it: v&xmask truncates to XLEN
	// bits, and shifting left then arithmetically right by sxShift
	// sign-extends the low XLEN bits.
	xmask   uint64
	sxShift uint

	// Wiring to the shared memory hierarchy: pointers, not state. The
	// structures they reach are snapshotted by machine.Snapshot.
	memory *mem.Memory
	icache *mem.Cache
	dcache *mem.Cache

	// Flat register/queue/predictor state (slabs + views).
	soa

	// Ring positions and incrementally maintained counters over the
	// soa arrays. freeCount is the live length of the freeBack stack;
	// entries past it are dead.
	robHead   int
	robCount  int
	lqHead    int
	lqCount   int
	sqHead    int
	sqCount   int
	rasTop    int
	freeCount int

	fetchPC     uint64
	fetchStall  uint64
	fetchFrozen bool // stop fetching: fetch fault or HALT seen

	// The fetch queue is a ring over a fixed buffer: fetchLen slots
	// starting at fetchHead, wrapping at len(fetchQ). fetch writes the
	// tail slot in place and rename advances the head, so neither end
	// moves a slot. Where the ring sits in the buffer is representation
	// only: Snapshot captures the queue in order from index 0, and
	// Restore lays it down there.
	fetchQ    []fetchSlot
	fetchHead int
	fetchLen  int

	// fetchFacts[i] holds factsOf(fetchQ[i].In) for every queued slot:
	// fetch copies it out of the predecode memo as it fills the slot, so
	// rename reads its facts at the ring index it is already at. A
	// snapshot carries only the slot; Restore recomputes the facts.
	fetchFacts []renameFacts

	inflight []inflightOp

	cycle    uint64
	seq      uint64
	expectPC uint64
	halted   bool
	crash    *simerr.Crash

	output    []uint64
	maxOutput int

	squashedAfter uint64

	// Incrementally maintained occupancy counters (hot path).
	iqCount int
	prfLive int

	// iqValid mirrors the qValid bits of iqFlags, one bit per slot, so
	// the per-cycle insert/issue/wakeup scans walk set bits instead of
	// every slot. Sound because faults never flip a valid bit (see
	// faults.go); IQSize <= 64 is asserted at construction.
	iqValid uint64

	// iqReady marks the valid, unissued entries whose two ready bits are
	// both set — exactly the candidates the issue scan used to find by
	// walking every slot. iqInsert/wakeup/issue/squash maintain it, and
	// FlipBit re-derives a slot's bit (iqSync) after flipping into the
	// slot's Source field.
	iqReady uint64

	// iqWaiters[tag] holds, one bit per slot, the entries that may be
	// waiting for physical register tag to broadcast: a superset of the
	// valid entries with a clear ready bit whose source tag equals tag.
	// iqInsert and iqSync add an entry under each operand it waits on;
	// wakeup clears a tag's word once it has served it. Bits are never
	// removed when an entry issues, is squashed or has its tag flipped
	// away: wakeup re-reads the slab for every bit it finds, so a stale
	// bit costs one compare, while a missing one would lose a wakeup.
	// Tags at or above NumPhysRegs (reachable only through a flip) are
	// not indexed: writePhys asserts before such a tag could broadcast.
	iqWaiters []uint64

	// lqPending marks load-queue slots whose flag byte reads "address
	// known, not yet performed" (valid|addrReady, done and inflight
	// clear) — the entries loadStep can act on. Bits are meaningful only
	// inside the occupied ring window; loadStep masks with ringMask.
	lqPending uint64

	// lqRetry marks the loads whose store-queue check is worth running:
	// a superset of the pending loads the check would not find blocked.
	// loadOne clears a load's bit when an older store blocks it and notes
	// the load under that store in lqWaitSQ; the bit comes back when that
	// store executes or drains (sqRelease), the only events that can
	// change the verdict short of a squash, a restore or a flip in the
	// LQ or SQ, each of which sets every bit. A blocked check has no side
	// effects, so a spurious bit costs one repeated walk, while a missing
	// one would park a load forever.
	lqRetry  uint64
	lqWaitSQ []uint64

	// Memoized bounds of the executable region serving fetches: a pc
	// with pc&3 == 0 inside [fetchSpanLo, fetchSpanHi] needs no
	// CheckFetch walk. The address map is immutable after program load.
	fetchSpanLo uint64
	fetchSpanHi uint64

	// Direct-mapped predecode memo (frontend.go): each slot pairs a word
	// with its decode and the rename-stage facts derived from it.
	dec []predecoded

	// Scratch buffers reused across cycles to avoid per-cycle allocation.
	dueBuf  []int
	opsBuf  []inflightOp
	candBuf []int

	// commitHook, when non-nil, observes every committed instruction in
	// program order (see SetCommitHook).
	commitHook func(CommitEvent)

	Stats Stats
}

// NewCore builds a core over the given memory system, with fetch
// starting at entry.
func NewCore(cfg Config, memory *mem.Memory, icache, dcache *mem.Cache, entry uint64) *Core {
	if cfg.IQSize > 64 {
		simerr.Assertf("cpu: IQSize %d exceeds the 64-slot issue-queue valid-mask limit", cfg.IQSize)
	}
	if cfg.LQSize > 64 {
		simerr.Assertf("cpu: LQSize %d exceeds the 64-slot load-queue pending-mask limit", cfg.LQSize)
	}
	c := &Core{
		cfg:       cfg,
		xmask:     ^uint64(0) >> uint(64-cfg.XLEN),
		sxShift:   uint(64 - cfg.XLEN),
		memory:    memory,
		icache:    icache,
		dcache:    dcache,
		fetchPC:   entry,
		expectPC:  entry,
		maxOutput: 1 << 20,
		iqWaiters: make([]uint64, cfg.NumPhysRegs),
		lqRetry:   ^uint64(0),
		lqWaitSQ:  make([]uint64, cfg.SQSize),
		// One slot beyond what fetch fills: the bound DecodeCoreState
		// accepts for a stored queue.
		fetchQ:     make([]fetchSlot, cfg.FetchQueueSize+1),
		fetchFacts: make([]renameFacts, cfg.FetchQueueSize+1),
	}
	c.carve(&c.cfg)
	for a := 0; a < cfg.NumArchRegs; a++ {
		c.rat[a] = uint16(a)
		c.prfReady[a] = 1
		c.prfAlloc[a] = 1
	}
	c.prfLive = cfg.NumArchRegs
	for p := cfg.NumPhysRegs - 1; p >= cfg.NumArchRegs; p-- {
		c.freeBack[c.freeCount] = uint16(p)
		c.freeCount++
	}
	for i := range c.bimodal {
		c.bimodal[i] = 1 // weakly not-taken
	}
	c.fetchSpanLo, c.fetchSpanHi = 1, 0 // empty span until the first fetch resolves it
	c.dec = make([]predecoded, predecodeSlots)
	zero := predecoded{in: isa.Decode(0)}
	zero.renameFacts = c.factsOf(zero.in)
	for i := range c.dec {
		c.dec[i] = zero
	}
	return c
}

// SetReg writes an architectural register before the run starts (used by
// the loader to initialize the stack pointer).
func (c *Core) SetReg(arch uint8, val uint64) {
	c.prf[c.rat[arch]] = c.maskTo(val)
}

// Output returns the values emitted by committed OUT instructions.
func (c *Core) Output() []uint64 { return c.output }

// Halted reports whether the program has committed HALT.
func (c *Core) Halted() bool { return c.halted }

// Crash returns the crash record if the program died, else nil.
func (c *Core) Crash() *simerr.Crash { return c.crash }

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// Step advances the machine one cycle. It returns true while the
// simulation should continue (not halted, not crashed).
func (c *Core) Step() bool {
	if c.halted || c.crash != nil {
		return false
	}
	c.commit()
	if c.halted || c.crash != nil {
		c.cycle++
		c.Stats.Cycles = c.cycle
		return false
	}
	c.writeback()
	c.loadStep()
	c.issue()
	c.rename()
	c.fetch()
	c.accountOccupancy()
	c.cycle++
	c.Stats.Cycles = c.cycle
	return true
}

func (c *Core) accountOccupancy() {
	c.Stats.ROBOccupancy += uint64(c.robCount)
	c.Stats.LQOccupancy += uint64(c.lqCount)
	c.Stats.SQOccupancy += uint64(c.sqCount)
	c.Stats.IQOccupancy += uint64(c.iqCount)
	c.Stats.PRFLive += uint64(c.prfLive)
}

// --- ring helpers ---------------------------------------------------------

// robAlloc claims the next ROB slot and returns the raw slot index.
// The caller must write every per-entry array at that index — writing
// zero where a field is unused — so recycled-slot bytes stay
// deterministic without a zeroing pass on the hot path.
func (c *Core) robAlloc() int {
	idx := c.robHead + c.robCount
	if idx >= c.cfg.ROBSize {
		idx -= c.cfg.ROBSize
	}
	c.robCount++
	return idx
}

// --- register helpers ----------------------------------------------------

// maskTo truncates a value to the configured word width.
func (c *Core) maskTo(v uint64) uint64 { return v & c.xmask }

// signExt interprets the low XLEN bits of v as signed and returns the
// sign-extended 64-bit representation used internally.
func (c *Core) signExt(v uint64) int64 { return int64(v<<c.sxShift) >> c.sxShift }

func (c *Core) readPhys(p uint16) uint64 {
	if int(p) >= c.cfg.NumPhysRegs {
		simerr.Assertf("cpu: read of physical register %d outside file of %d", p, c.cfg.NumPhysRegs)
	}
	return c.prf[p]
}

func (c *Core) writePhys(p uint16, v uint64) {
	if int(p) >= c.cfg.NumPhysRegs {
		simerr.Assertf("cpu: write of physical register %d outside file of %d", p, c.cfg.NumPhysRegs)
	}
	c.prf[p] = c.maskTo(v)
	c.prfReady[p] = 1
}

func (c *Core) popFree() uint16 {
	p := c.freeBack[c.freeCount-1]
	c.freeCount--
	if int(p) >= c.cfg.NumPhysRegs || c.prfAlloc[p] != 0 {
		simerr.Assertf("cpu: free list produced corrupt register %d", p)
	}
	c.prfAlloc[p] = 1
	c.prfReady[p] = 0
	c.prfLive++
	return p
}

func (c *Core) freePhys(p uint16) {
	if int(p) >= c.cfg.NumPhysRegs || p == 0 || c.prfAlloc[p] == 0 {
		simerr.Assertf("cpu: double free or corrupt free of physical register %d", p)
	}
	c.prfAlloc[p] = 0
	c.prfLive--
	c.freeBack[c.freeCount] = p
	c.freeCount++
}

// robAt validates a (possibly corrupted) ROB index and that the slot
// still belongs to the expected instruction, returning the raw index.
func (c *Core) robAt(idx uint16, seq uint64) int {
	if int(idx) >= c.cfg.ROBSize {
		simerr.Assertf("cpu: ROB index %d out of range", idx)
	}
	if c.robSeq[idx] != seq {
		simerr.Assertf("cpu: ROB entry %d sequence mismatch", idx)
	}
	return int(idx)
}

// --- commit ----------------------------------------------------------------

func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.robCount > 0; n++ {
		h := c.robHead
		flags := c.robFlags[h]
		if flags&rDone == 0 {
			return
		}
		if c.robExc[h] != excNone {
			c.crash = &simerr.Crash{Reason: excName(c.robExc[h]), PC: c.robPC[h]}
			return
		}
		pc := c.robPC[h]
		if pc != c.expectPC {
			simerr.Assertf("cpu: commit PC %#x does not match expected %#x", pc, c.expectPC)
		}
		if flags&rIsBranch != 0 && flags&rResolved == 0 {
			simerr.Assertf("cpu: committing unresolved branch at %#x", pc)
		}
		if flags&rIsStore != 0 {
			if !c.commitStore(h) {
				return // crash recorded
			}
			c.Stats.Stores++
		}
		if flags&rIsLoad != 0 {
			if c.robLQ[h] == badIdx || c.lqCount == 0 || c.lqHead != int(c.robLQ[h]) {
				simerr.Assertf("cpu: LQ drain mismatch at commit")
			}
			c.lqHead++
			if c.lqHead == c.cfg.LQSize {
				c.lqHead = 0
			}
			c.lqCount--
			c.Stats.Loads++
		}
		switch isa.Opcode(c.robOp[h]) {
		case isa.OpOut:
			if len(c.output) < c.maxOutput {
				c.output = append(c.output, c.robOutVal[h])
			}
		case isa.OpHalt:
			c.halted = true
		}
		if c.robArch[h] != noReg {
			c.freePhys(c.robOld[h])
		}
		if flags&rResolved != 0 && flags&rActTaken != 0 {
			c.expectPC = c.robActTgt[h]
		} else {
			c.expectPC = pc + 4
		}
		if c.commitHook != nil {
			c.commitHook(CommitEvent{Cycle: c.cycle, PC: pc, DestArch: c.robArch[h], DestPhys: c.robDest[h]})
		}
		c.robHead++
		if c.robHead == c.cfg.ROBSize {
			c.robHead = 0
		}
		c.robCount--
		c.Stats.Committed++
		if c.halted {
			return
		}
	}
}

// commitStore drains the store-queue head for a committing store. It
// returns false when the store raises a memory fault (crash recorded).
func (c *Core) commitStore(h int) bool {
	sqIdx := c.robSQ[h]
	if sqIdx == badIdx || c.sqCount == 0 || c.sqHead != int(sqIdx) {
		simerr.Assertf("cpu: SQ drain mismatch at commit")
	}
	si := int(sqIdx)
	if c.sqFlags[si]&sValid == 0 || c.sqFlags[si]&sReady == 0 {
		simerr.Assertf("cpu: committing store with invalid SQ entry state")
	}
	if c.sqROB[si] != uint16(c.robHead) {
		simerr.Assertf("cpu: SQ entry ROB linkage corrupt")
	}
	size := uint64(c.sqSize[si])
	addr := c.sqAddr[si]
	if f := c.memory.CheckAccess(addr, size, true); f != nil {
		c.crash = &simerr.Crash{Reason: "store " + f.Kind.String(), Addr: addr, PC: c.robPC[h]}
		return false
	}
	c.dcache.Write(addr, int(size), c.sqData[si])
	c.sqRelease(si)
	c.sqHead++
	if c.sqHead == c.cfg.SQSize {
		c.sqHead = 0
	}
	c.sqCount--
	return true
}

// --- writeback --------------------------------------------------------------

func (c *Core) writeback() {
	// Collect completions due this cycle, oldest first, up to WBWidth.
	due := c.dueBuf[:0]
	for i := range c.inflight {
		if c.inflight[i].DoneAt <= c.cycle {
			due = append(due, i)
		}
	}
	if len(due) == 0 {
		c.dueBuf = due
		return
	}
	// Insertion sort by age: the slice is tiny and this avoids the
	// allocations of sort.Slice in the per-cycle hot path.
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && c.inflight[due[j]].Seq < c.inflight[due[j-1]].Seq; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	if len(due) > c.cfg.WBWidth {
		due = due[:c.cfg.WBWidth]
	}
	ops := c.opsBuf[:0]
	for _, i := range due {
		ops = append(ops, c.inflight[i])
		c.inflight[i].DoneAt = ^uint64(0) // mark taken
	}
	rest := c.inflight[:0]
	for i := range c.inflight {
		if c.inflight[i].DoneAt != ^uint64(0) {
			rest = append(rest, c.inflight[i])
		}
	}
	c.inflight = rest
	c.dueBuf = due
	c.opsBuf = ops
	// A mispredict squash inside this batch invalidates every younger
	// completion in it; processing them would let a squashed branch
	// redirect the front end.
	c.squashedAfter = ^uint64(0)
	for i := range ops {
		if ops[i].Seq > c.squashedAfter {
			continue
		}
		c.finish(&ops[i])
	}
}

func (c *Core) finish(op *inflightOp) {
	if op.Dest != noPhys {
		c.writePhys(op.Dest, op.Value)
		c.wakeup(op.Dest)
	}
	e := c.robAt(op.ROBIdx, op.Seq)
	c.robFlags[e] |= rDone
	if c.robFlags[e]&rIsBranch != 0 && c.robFlags[e]&rResolved != 0 {
		c.resolveBranch(e)
	}
}

// resolveBranch trains the predictor and squashes on a misprediction.
func (c *Core) resolveBranch(e int) {
	c.Stats.Branches++
	pc := c.robPC[e]
	op := isa.Opcode(c.robOp[e])
	actTaken := c.robFlags[e]&rActTaken != 0
	if op.IsBranch() {
		c.updateCond(pc, actTaken)
	}
	if op == isa.OpJalr {
		c.updateIndirect(pc, c.robActTgt[e])
	}
	next := pc + 4
	if actTaken {
		next = c.robActTgt[e]
	}
	predNext := pc + 4
	if c.robFlags[e]&rPredTaken != 0 {
		predNext = c.robPredTgt[e]
	}
	if next != predNext {
		c.Stats.Mispredicts++
		seq := c.robSeq[e]
		c.squash(seq, next)
		if seq < c.squashedAfter {
			c.squashedAfter = seq
		}
	}
}

// wakeup broadcasts a completed physical register to the issue queue:
// every valid entry still waiting on tag gets the matching ready bit.
// The candidates come from the tag's waiter word; each is re-checked
// against the slab, which stays the authority on who waits for what.
func (c *Core) wakeup(tag uint16) {
	// Entries already in iqReady have both ready bits set, so a wakeup
	// cannot change them; only the still-waiting valid entries matter.
	m := c.iqWaiters[tag] & c.iqValid &^ c.iqReady
	c.iqWaiters[tag] = 0
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		f := c.iqFlags[i]
		nf := f
		if nf&qRdy1 == 0 && c.iqSrc1[i] == tag {
			nf |= qRdy1
		}
		if nf&qRdy2 == 0 && c.iqSrc2[i] == tag {
			nf |= qRdy2
		}
		if nf != f {
			c.iqFlags[i] = nf
			if nf&(qIssued|qRdy1|qRdy2) == qRdy1|qRdy2 {
				c.iqReady |= 1 << uint(i)
			}
		}
	}
}

// iqWait records that slot i (as a one-bit mask) waits on tag.
func (c *Core) iqWait(tag uint16, slot uint64) {
	if int(tag) < len(c.iqWaiters) {
		c.iqWaiters[tag] |= slot
	}
}

// iqSync re-derives what the indices hold about slot i from its slab
// state: its iqReady bit, and a waiter bit under each source tag whose
// ready bit is clear. Restore calls it for every valid slot, and fault
// injection after any flip into the slot's Source field — a flipped tag
// must be found under its new value, and a ready bit flipped off makes
// the entry a waiter again.
func (c *Core) iqSync(i int) {
	f, slot := c.iqFlags[i], uint64(1)<<uint(i)
	if f&(qValid|qIssued|qRdy1|qRdy2) == qValid|qRdy1|qRdy2 {
		c.iqReady |= slot
	} else {
		c.iqReady &^= slot
	}
	if f&qRdy1 == 0 {
		c.iqWait(c.iqSrc1[i], slot)
	}
	if f&qRdy2 == 0 {
		c.iqWait(c.iqSrc2[i], slot)
	}
}

// lqSyncPending re-derives one slot's lqPending bit from its flag byte.
func (c *Core) lqSyncPending(i int) {
	if f := c.lqFlags[i]; f&(lValid|lAddrReady|lDone|lInflight) == lValid|lAddrReady {
		c.lqPending |= 1 << uint(i)
	} else {
		c.lqPending &^= 1 << uint(i)
	}
}

// ringMask returns a bitmask of the occupied ring slots
// [head, head+count) mod size, for size <= 64.
func ringMask(head, count, size int) uint64 {
	if n := head + count - size; n > 0 {
		// Occupancy wraps: [head, size) plus [0, n).
		return (uint64(1)<<uint(size-head)-1)<<uint(head) | (uint64(1)<<uint(n) - 1)
	}
	return (uint64(1)<<uint(count) - 1) << uint(head)
}

// --- load queue ------------------------------------------------------------

func (c *Core) loadStep() {
	if c.lqCount == 0 {
		return
	}
	// Pending bits outside the occupied window are stale (a fault can
	// repaint a drained slot's flags); the ring mask filters them, and
	// the head-split iteration visits survivors oldest first, matching
	// the original head-to-tail walk (the d-cache LRU clock makes the
	// visit order architecturally visible).
	pend := c.lqPending & c.lqRetry & ringMask(c.lqHead, c.lqCount, c.cfg.LQSize)
	if pend == 0 {
		return
	}
	headMask := uint64(1)<<uint(c.lqHead) - 1
	for _, part := range [2]uint64{pend &^ headMask, pend & headMask} {
		for ; part != 0; part &= part - 1 {
			li := bits.TrailingZeros64(part)
			c.loadOne(li)
		}
	}
}

// sqRelease makes every load last found blocked behind store-queue slot
// si eligible again; called when the store's address arrives and when it
// drains.
func (c *Core) sqRelease(si int) {
	c.lqRetry |= c.lqWaitSQ[si]
	c.lqWaitSQ[si] = 0
}

// storeCheck is the memory-ordering check for load-queue entry li: walk
// older stores youngest-first; the first one that could affect the load
// decides. It returns the blocking store-queue slot (unknown address, or
// an overlap that cannot forward and must drain first), or -1 with the
// value to forward when fwd is set. It changes no state.
func (c *Core) storeCheck(li int) (blocker int, fwd bool, fwdVal uint64) {
	lAddrV := c.lqAddr[li]
	lSeqV := c.lqSeq[li]
	ls := uint64(c.lqSize[li])
	for i := c.sqCount - 1; i >= 0; i-- {
		si := c.sqHead + i
		if si >= c.cfg.SQSize {
			si -= c.cfg.SQSize
		}
		if c.sqFlags[si]&sValid == 0 || c.sqSeq[si] >= lSeqV {
			continue
		}
		if c.sqFlags[si]&sReady == 0 {
			return si, false, 0 // unknown older store address: wait
		}
		ss := uint64(c.sqSize[si])
		sAddrV := c.sqAddr[si]
		if sAddrV < lAddrV+ls && lAddrV < sAddrV+ss {
			if c.cfg.StoreForwarding && sAddrV == lAddrV && ss >= ls {
				return -1, true, c.sqData[si]
			}
			return si, false, 0 // partial overlap: wait for drain
		}
	}
	return -1, false, 0
}

// loadOne attempts one actionable load-queue entry: forward from an
// older store, stall on a conflict, fault precisely, or start the
// d-cache access.
func (c *Core) loadOne(li int) {
	blocker, fwd, fwdVal := c.storeCheck(li)
	if blocker >= 0 {
		c.lqRetry &^= 1 << uint(li)
		c.lqWaitSQ[blocker] |= 1 << uint(li)
		return
	}
	lf := c.lqFlags[li]
	lAddrV := c.lqAddr[li]
	lSeqV := c.lqSeq[li]
	lSizeV := c.lqSize[li]
	size := uint64(lSizeV)
	if f := c.memory.CheckAccess(lAddrV, size, false); f != nil {
		// Precise memory fault: record on the ROB entry.
		e := c.robAt(c.lqROB[li], lSeqV)
		switch f.Kind {
		case mem.FaultMisaligned:
			c.robExc[e] = excMisalign
		case mem.FaultProtection:
			c.robExc[e] = excProt
		default:
			c.robExc[e] = excUnmapped
		}
		c.robFlags[e] |= rDone
		c.lqFlags[li] |= lDone
		c.lqPending &^= 1 << uint(li)
		return
	}
	var val uint64
	lat := 1
	if fwd {
		val = fwdVal
	} else {
		val, lat = c.dcache.Read(lAddrV, int(size))
	}
	val = c.extendLoad(val, lSizeV, lf&lSignExt != 0)
	fillAt := c.cycle + uint64(lat)
	c.lqFlags[li] |= lInflight | lDone
	c.lqPending &^= 1 << uint(li)
	c.lqFillAt[li] = fillAt
	c.inflight = append(c.inflight, inflightOp{
		DoneAt: fillAt,
		Dest:   c.lqDest[li],
		Value:  val,
		ROBIdx: c.lqROB[li],
		Seq:    lSeqV,
	})
}

func (c *Core) extendLoad(v uint64, size uint8, signExt bool) uint64 {
	switch size {
	case 1:
		if signExt {
			return uint64(int64(int8(v)))
		}
		return v & 0xff
	case 4:
		if signExt {
			return uint64(int64(int32(uint32(v))))
		}
		return v & 0xffffffff
	}
	return v
}

// --- issue / execute --------------------------------------------------------

func (c *Core) issue() {
	// Select the oldest ready entries, up to IssueWidth.
	if c.iqReady == 0 {
		return
	}
	cand := c.candBuf[:0]
	for m := c.iqReady; m != 0; m &= m - 1 {
		cand = append(cand, bits.TrailingZeros64(m))
	}
	c.candBuf = cand
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0 && c.iqSeq[cand[j]] < c.iqSeq[cand[j-1]]; j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}
	if len(cand) > c.cfg.IssueWidth {
		cand = cand[:c.cfg.IssueWidth]
	}
	for _, i := range cand {
		c.execute(i)
		c.iqFlags[i] &^= qValid
		c.iqValid &^= 1 << uint(i)
		c.iqReady &^= 1 << uint(i)
		c.iqCount--
	}
}

// latFor returns the execution latency of an ALU-class operation.
func (c *Core) latFor(op isa.Opcode) int {
	switch op {
	case isa.OpMul:
		return c.cfg.MulLat
	case isa.OpDiv, isa.OpRem:
		return c.cfg.DivLat
	default:
		return c.cfg.ALULat
	}
}

func (c *Core) execute(qi int) {
	v1 := c.readPhys(c.iqSrc1[qi])
	v2 := c.readPhys(c.iqSrc2[qi])
	seq := c.iqSeq[qi]
	imm := int64(c.iqImm[qi])
	robIdx := c.iqROB[qi]
	e := c.robAt(robIdx, seq)
	op := isa.Opcode(c.iqOp[qi])
	done := func(dest uint16, val uint64, lat int) {
		c.inflight = append(c.inflight, inflightOp{
			DoneAt: c.cycle + uint64(lat),
			Dest:   dest,
			Value:  val,
			ROBIdx: robIdx,
			Seq:    seq,
		})
	}
	switch {
	case op.IsLoad():
		addr := c.maskTo(uint64(int64(v1) + imm))
		l := c.lqAt(c.robLQ[e], seq)
		c.lqAddr[l] = addr
		c.lqFlags[l] |= lAddrReady
		c.lqSyncPending(l)
	case op.IsStore():
		addr := c.maskTo(uint64(int64(v1) + imm))
		s := c.sqAt(c.robSQ[e], seq)
		c.sqAddr[s] = addr
		c.sqData[s] = c.maskTo(v2)
		c.sqFlags[s] |= sReady
		c.sqRelease(s)
		done(noPhys, 0, 1)
	case op.IsBranch():
		if c.evalBranch(op, v1, v2) {
			c.robFlags[e] |= rActTaken
		} else {
			c.robFlags[e] &^= rActTaken
		}
		c.robActTgt[e] = c.robPC[e] + 4 + uint64(imm)*4
		c.robFlags[e] |= rResolved
		done(noPhys, 0, 1)
	case op == isa.OpJalr:
		c.robFlags[e] |= rActTaken | rResolved
		c.robActTgt[e] = c.maskTo(uint64(int64(v1)+imm)) &^ 3
		done(c.iqDest[qi], c.robPC[e]+4, 1)
	case op == isa.OpJal:
		done(c.iqDest[qi], c.robPC[e]+4, 1)
	case op == isa.OpOut:
		c.robOutVal[e] = c.maskTo(v1)
		done(noPhys, 0, 1)
	default:
		val := c.alu(op, v1, v2, imm)
		done(c.iqDest[qi], val, c.latFor(op))
	}
}

func (c *Core) lqAt(idx uint16, seq uint64) int {
	if int(idx) >= c.cfg.LQSize {
		simerr.Assertf("cpu: LQ index %d out of range", idx)
	}
	if c.lqFlags[idx]&lValid == 0 || c.lqSeq[idx] != seq {
		simerr.Assertf("cpu: LQ entry %d inconsistent", idx)
	}
	return int(idx)
}

func (c *Core) sqAt(idx uint16, seq uint64) int {
	if int(idx) >= c.cfg.SQSize {
		simerr.Assertf("cpu: SQ index %d out of range", idx)
	}
	if c.sqFlags[idx]&sValid == 0 || c.sqSeq[idx] != seq {
		simerr.Assertf("cpu: SQ entry %d inconsistent", idx)
	}
	return int(idx)
}

func (c *Core) evalBranch(op isa.Opcode, v1, v2 uint64) bool {
	s1, s2 := c.signExt(v1), c.signExt(v2)
	switch op {
	case isa.OpBeq:
		return v1 == v2
	case isa.OpBne:
		return v1 != v2
	case isa.OpBlt:
		return s1 < s2
	case isa.OpBge:
		return s1 >= s2
	case isa.OpBltu:
		return c.maskTo(v1) < c.maskTo(v2)
	case isa.OpBgeu:
		return c.maskTo(v1) >= c.maskTo(v2)
	}
	simerr.Assertf("cpu: evalBranch on non-branch %s", op.Name())
	return false
}

// alu computes an integer operation. For I-format operations the second
// operand is the immediate; v2 is ignored.
func (c *Core) alu(op isa.Opcode, v1, v2 uint64, imm int64) uint64 {
	shiftMask := uint64(c.cfg.XLEN - 1)
	s1 := c.signExt(v1)
	b := v2
	if op.Format() == isa.FmtI {
		b = uint64(imm)
		switch op {
		case isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpSltiu:
			b = uint64(uint16(imm)) // logical immediates zero-extend
		}
	}
	sb := c.signExt(c.maskTo(b))
	switch op {
	case isa.OpAdd, isa.OpAddi:
		return uint64(s1 + sb)
	case isa.OpSub:
		return uint64(s1 - sb)
	case isa.OpMul:
		return uint64(s1 * sb)
	case isa.OpDiv:
		if sb == 0 {
			return ^uint64(0)
		}
		if s1 == minInt(c.cfg.XLEN) && sb == -1 {
			return uint64(s1)
		}
		return uint64(s1 / sb)
	case isa.OpRem:
		if sb == 0 {
			return uint64(s1)
		}
		if s1 == minInt(c.cfg.XLEN) && sb == -1 {
			return 0
		}
		return uint64(s1 % sb)
	case isa.OpAnd, isa.OpAndi:
		return v1 & b
	case isa.OpOr, isa.OpOri:
		return v1 | b
	case isa.OpXor, isa.OpXori:
		return v1 ^ b
	case isa.OpSll, isa.OpSlli:
		return v1 << (b & shiftMask)
	case isa.OpSrl, isa.OpSrli:
		return c.maskTo(v1) >> (b & shiftMask)
	case isa.OpSra, isa.OpSrai:
		return uint64(s1 >> (b & shiftMask))
	case isa.OpSlt, isa.OpSlti:
		if s1 < sb {
			return 1
		}
		return 0
	case isa.OpSltu, isa.OpSltiu:
		if c.maskTo(v1) < c.maskTo(b) {
			return 1
		}
		return 0
	case isa.OpLui:
		return uint64(int64(imm) << 16)
	}
	simerr.Assertf("cpu: alu on unexpected op %s", op.Name())
	return 0
}

func minInt(xlen int) int64 {
	if xlen == 64 {
		return -1 << 63
	}
	return -1 << 31
}
