package cpu

// Full-core snapshot and restore, the foundation of the checkpoint
// fast-forward in the injection engine (internal/checkpoint). A
// CoreState captures every piece of state that can influence future
// execution — pipeline structures, rename state, predictor, fetch
// engine, commit bookkeeping — plus the Stats needed so a run restored
// mid-flight reports the same statistics a from-zero run would.
//
// Because the fixed-size hot state lives in three flat slabs
// (structures.go), a snapshot is three slice copies plus the scalars
// and the small variable-length queues, and the strict comparison is
// three flat compares. Snapshots are pooled: Snapshot draws a
// CoreState from a sync.Pool and reuses its buffers (length/capacity
// discipline in snapCopy), and Release returns it. Ownership rule
// (DESIGN.md §12): the snapshot owner is whoever holds the pointer;
// Release may be called exactly once, only after every reader —
// restore workers, convergence watches — is done with it. In the
// engine that point is faultinj.Experiment.Close.
//
// Three operations with three distinct equality notions live here:
//
//   - Snapshot/Restore are bit-exact: a restored core replays the
//     remainder of the run cycle-for-cycle identically to the core the
//     snapshot was taken from. Scratch (dueBuf, opsBuf, cand), the
//     slots of inflight past nInflight, the predecode memo and the
//     derived indices (DESIGN.md §12) are the only exclusions; the
//     scratch and the free slots are dead across cycles by
//     construction, the memo caches pure functions of the fetched word,
//     and Restore rebuilds every index from the slabs.
//
//   - StateEquals is the *behavioral* equivalence used by the
//     early-convergence Masked exit: it ignores architecturally dead
//     state (values of unallocated or not-yet-written physical
//     registers, fields of unoccupied ROB/IQ/LQ/SQ slots, the dead
//     tail of the free-list stack) so that a fault parked in a dead
//     slot converges as soon as the live state matches, not only when
//     the dead bits are coincidentally rewritten. It first tries the
//     flat slab compare — identical slabs imply behavioral equality —
//     and only walks per-entry when the slabs differ. See the
//     dead-state arguments on each exclusion below; DESIGN.md §10 and
//     §12 carry the full soundness argument.
//
//   - CoreState.Equal is strict: every captured bit, dead or live.
//     Tests use it to prove Restore(Snapshot()) round-trips exactly.

import (
	"bytes"
	"slices"
	"sync"
	"unsafe"

	"sevsim/internal/simerr"
)

// CoreState is a point-in-time copy of all authoritative core state:
// the three slabs (with views carved over them, so the equality walks
// index snapshot and live core identically), the ring positions and
// counters, and the variable-length queues. It shares no memory with
// the core it was taken from, so a snapshot may be restored
// concurrently into many cores. It is immutable from Snapshot until
// Release: Restore never writes through it.
type CoreState struct {
	soa

	ROBHead   int
	ROBCount  int
	LQHead    int
	LQCount   int
	SQHead    int
	SQCount   int
	RASTop    int
	FreeCount int

	FetchPC     uint64
	FetchQ      []fetchSlot
	FetchStall  uint64
	FetchFrozen bool

	Inflight []inflightOp

	Cycle    uint64
	Seq      uint64
	ExpectPC uint64
	Halted   bool
	Crash    *simerr.Crash

	Output        []uint64
	SquashedAfter uint64
	IQCount       int
	PRFLive       int

	Stats Stats
}

// coreStatePool recycles snapshot buffers across checkpoints and
// units. A pooled CoreState keeps its slabs and queue buffers, so a
// same-config Snapshot is three copies with zero allocation.
var coreStatePool = sync.Pool{New: func() any { return new(CoreState) }}

// Release returns the snapshot's buffers to the pool. The caller must
// be the last holder: no restore, comparison, or convergence watch may
// use the snapshot afterwards, and Release must not be called twice.
func (s *CoreState) Release() {
	s.Crash = nil
	coreStatePool.Put(s)
}

// Bytes returns the memory the snapshot's slabs and queues hold.
func (s *CoreState) Bytes() int {
	return 8*len(s.u64) + 2*len(s.u16) + len(s.u8) + 8*len(s.Output) +
		len(s.FetchQ)*int(unsafe.Sizeof(fetchSlot{})) + len(s.Inflight)*int(unsafe.Sizeof(inflightOp{}))
}

// snapCopy copies src into dst, reusing dst's backing array when its
// capacity suffices (the pooled-buffer length/capacity discipline: the
// result always has len(src), and only grows an allocation when the
// pooled buffer is too small).
func snapCopy[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		dst = make([]T, len(src))
	} else {
		dst = dst[:len(src)]
	}
	copy(dst, src)
	return dst
}

// Snapshot captures the complete core state into a pooled CoreState.
// The result is immutable by contract until Release: Restore never
// writes through it, so one snapshot can be shared read-only across
// concurrent injection workers.
func (c *Core) Snapshot() *CoreState {
	s := coreStatePool.Get().(*CoreState)
	s.u64 = snapCopy(s.u64, c.u64)
	s.u16 = snapCopy(s.u16, c.u16)
	s.u8 = snapCopy(s.u8, c.u8)
	s.carve(&c.cfg) // re-slice the views over the copied slabs

	s.ROBHead, s.ROBCount = c.robHead, c.robCount
	s.LQHead, s.LQCount = c.lqHead, c.lqCount
	s.SQHead, s.SQCount = c.sqHead, c.sqCount
	s.RASTop = c.rasTop
	s.FreeCount = c.freeCount

	s.FetchPC = c.fetchPC
	older, younger := c.fetchQueue()
	s.FetchQ = append(append(s.FetchQ[:0], older...), younger...)
	s.FetchStall = c.fetchStall
	s.FetchFrozen = c.fetchFrozen

	s.Inflight = snapCopy(s.Inflight, c.inflight[:c.nInflight])

	s.Cycle = c.cycle
	s.Seq = c.seq
	s.ExpectPC = c.expectPC
	s.Halted = c.halted
	s.Crash = nil
	if c.crash != nil {
		crash := *c.crash
		s.Crash = &crash
	}

	s.Output = snapCopy(s.Output, c.output)
	s.SquashedAfter = c.squashedAfter
	s.IQCount = c.iqCount
	s.PRFLive = c.prfLive

	s.Stats = c.Stats
	return s
}

// Restore overwrites the core's state with the snapshot's, reusing the
// core's existing backing arrays (restore-into), so the injection hot
// loop recycles one scratch core per worker instead of allocating a
// fresh core per injection. The snapshot must come from an identically
// configured core: every slab length is validated, which covers every
// fixed-size structure including the predictor tables (a mismatched
// snapshot used to silently truncate on the bare copies).
func (c *Core) Restore(s *CoreState) {
	if len(c.u64) != len(s.u64) || len(c.u16) != len(s.u16) || len(c.u8) != len(s.u8) {
		simerr.Assertf(
			"cpu: restore from a differently configured core snapshot: slab lengths %d/%d/%d (u64/u16/u8), core has %d/%d/%d",
			len(s.u64), len(s.u16), len(s.u8), len(c.u64), len(c.u16), len(c.u8))
	}
	copy(c.u64, s.u64)
	copy(c.u16, s.u16)
	copy(c.u8, s.u8)

	c.robHead, c.robCount = s.ROBHead, s.ROBCount
	c.lqHead, c.lqCount = s.LQHead, s.LQCount
	c.sqHead, c.sqCount = s.SQHead, s.SQCount
	c.rasTop = s.RASTop
	c.freeCount = s.FreeCount

	c.fetchPC = s.FetchPC
	if len(s.FetchQ) > len(c.fetchQ) {
		simerr.Assertf("cpu: restore of a %d-slot fetch queue into a core that holds %d", len(s.FetchQ), len(c.fetchQ))
	}
	c.fetchHead, c.fetchLen = 0, copy(c.fetchQ, s.FetchQ)
	for i := range s.FetchQ {
		c.fetchFacts[i] = c.factsOf(s.FetchQ[i].In)
	}
	c.fetchStall = s.FetchStall
	c.fetchFrozen = s.FetchFrozen

	if len(s.Inflight) > len(c.inflight) {
		c.inflight = make([]inflightOp, len(s.Inflight))
		c.dueBuf = make([]int, 0, len(s.Inflight))
	}
	c.nInflight = copy(c.inflight, s.Inflight)

	c.cycle = s.Cycle
	c.seq = s.Seq
	c.expectPC = s.ExpectPC
	c.halted = s.Halted
	c.crash = nil
	if s.Crash != nil {
		crash := *s.Crash
		c.crash = &crash
	}

	c.output = append(c.output[:0], s.Output...)
	c.squashedAfter = s.SquashedAfter
	c.iqCount = s.IQCount
	c.prfLive = s.PRFLive

	// Rebuild the derived issue-queue and load-queue indices from the
	// restored slabs.
	c.iqValid = 0
	c.iqReady = 0
	clear(c.iqWaiters)
	for i, f := range c.iqFlags {
		if f&qValid != 0 {
			c.iqValid |= 1 << uint(i)
			c.iqSync(i)
		}
	}
	c.lqRetry = ^uint64(0)
	clear(c.lqWaitSQ)
	c.lqPending = 0
	for i, f := range c.lqFlags {
		if f&(lValid|lAddrReady|lDone|lInflight) == lValid|lAddrReady {
			c.lqPending |= 1 << uint(i)
		}
	}

	c.Stats = s.Stats
}

// StateEquals reports whether the core's behavioral state equals the
// snapshot's: equal states produce bit-identical future execution. The
// comparison skips state that is provably dead — overwritten before it
// can be read on every path that reaches it:
//
//   - prf[p] when prfAlloc[p] == 0 (free registers are re-written by
//     writePhys before any readPhys; readers wait on ready bits that
//     are cleared at allocation) or when prfReady[p] == 0 (the
//     in-flight producer writes the value before any consumer issues);
//   - ROB/LQ/SQ ring slots outside [head, head+count), IQ slots with
//     the valid flag clear, and freeBack entries at or above
//     freeCount: allocation overwrites the whole entry, and no reader
//     reaches an unoccupied slot from equal occupied state (corrupt
//     linkage that could reach one lives in occupied entries, which
//     are compared in full).
//
// SquashedAfter and the scratch buffers are reassigned before every use
// within a cycle, and Stats never feed back into execution or
// classification; all three are excluded. Everything else — including
// the predictor (it steers speculative cache fills and timing) and the
// committed output stream (the classification observable) — must match
// exactly.
//
// The flat fast path compares whole slabs first: identical slabs (with
// equal scalars and queues, checked before) are sufficient for
// behavioral equality, so the per-entry dead-state walk only runs when
// some slab byte differs.
func (c *Core) StateEquals(s *CoreState) bool {
	if len(c.u64) != len(s.u64) || len(c.u16) != len(s.u16) || len(c.u8) != len(s.u8) {
		return false
	}
	if c.cycle != s.Cycle || c.seq != s.Seq || c.expectPC != s.ExpectPC ||
		c.halted != s.Halted || (c.crash != nil) != (s.Crash != nil) {
		return false
	}
	if c.fetchPC != s.FetchPC || c.fetchStall != s.FetchStall || c.fetchFrozen != s.FetchFrozen {
		return false
	}
	if c.robHead != s.ROBHead || c.robCount != s.ROBCount ||
		c.lqHead != s.LQHead || c.lqCount != s.LQCount ||
		c.sqHead != s.SQHead || c.sqCount != s.SQCount ||
		c.rasTop != s.RASTop || c.freeCount != s.FreeCount ||
		c.iqCount != s.IQCount || c.prfLive != s.PRFLive {
		return false
	}
	older, younger := c.fetchQueue()
	if c.fetchLen != len(s.FetchQ) || !slices.Equal(older, s.FetchQ[:len(older)]) || !slices.Equal(younger, s.FetchQ[len(older):]) {
		return false
	}
	if !slices.Equal(c.inflight[:c.nInflight], s.Inflight) || !slices.Equal(c.output, s.Output) {
		return false
	}
	if slices.Equal(c.u64, s.u64) && slices.Equal(c.u16, s.u16) && bytes.Equal(c.u8, s.u8) {
		return true
	}
	// Some slab byte differs: walk per entry and decide whether every
	// difference is dead state.
	if !slices.Equal(c.prfReady, s.prfReady) || !slices.Equal(c.prfAlloc, s.prfAlloc) {
		return false
	}
	for p := range c.prf {
		if c.prfAlloc[p] != 0 && c.prfReady[p] != 0 && c.prf[p] != s.prf[p] {
			return false
		}
	}
	if !slices.Equal(c.rat, s.rat) {
		return false
	}
	if !slices.Equal(c.freeBack[:c.freeCount], s.freeBack[:s.FreeCount]) {
		return false
	}
	for i := 0; i < c.robCount; i++ {
		idx := (c.robHead + i) % c.cfg.ROBSize
		if c.robPC[idx] != s.robPC[idx] || c.robSeq[idx] != s.robSeq[idx] ||
			c.robPredTgt[idx] != s.robPredTgt[idx] || c.robActTgt[idx] != s.robActTgt[idx] ||
			c.robOutVal[idx] != s.robOutVal[idx] || c.robDest[idx] != s.robDest[idx] ||
			c.robOld[idx] != s.robOld[idx] || c.robLQ[idx] != s.robLQ[idx] ||
			c.robSQ[idx] != s.robSQ[idx] || c.robArch[idx] != s.robArch[idx] ||
			c.robExc[idx] != s.robExc[idx] || c.robOp[idx] != s.robOp[idx] ||
			c.robFlags[idx] != s.robFlags[idx] {
			return false
		}
	}
	for i := range c.iqFlags {
		f, g := c.iqFlags[i], s.iqFlags[i]
		if f&qValid != g&qValid {
			return false
		}
		if f&qValid == 0 {
			continue
		}
		if f != g || c.iqSrc1[i] != s.iqSrc1[i] || c.iqSrc2[i] != s.iqSrc2[i] ||
			c.iqDest[i] != s.iqDest[i] || c.iqROB[i] != s.iqROB[i] ||
			c.iqOp[i] != s.iqOp[i] || c.iqImm[i] != s.iqImm[i] || c.iqSeq[i] != s.iqSeq[i] {
			return false
		}
	}
	for i := 0; i < c.lqCount; i++ {
		idx := (c.lqHead + i) % c.cfg.LQSize
		if c.lqAddr[idx] != s.lqAddr[idx] || c.lqSeq[idx] != s.lqSeq[idx] ||
			c.lqFillAt[idx] != s.lqFillAt[idx] || c.lqDest[idx] != s.lqDest[idx] ||
			c.lqROB[idx] != s.lqROB[idx] || c.lqSize[idx] != s.lqSize[idx] ||
			c.lqFlags[idx] != s.lqFlags[idx] {
			return false
		}
	}
	for i := 0; i < c.sqCount; i++ {
		idx := (c.sqHead + i) % c.cfg.SQSize
		if c.sqAddr[idx] != s.sqAddr[idx] || c.sqData[idx] != s.sqData[idx] ||
			c.sqSeq[idx] != s.sqSeq[idx] || c.sqROB[idx] != s.sqROB[idx] ||
			c.sqSize[idx] != s.sqSize[idx] || c.sqFlags[idx] != s.sqFlags[idx] {
			return false
		}
	}
	if !slices.Equal(c.bimodal, s.bimodal) || !slices.Equal(c.btbTag, s.btbTag) ||
		!slices.Equal(c.btbTgt, s.btbTgt) || !slices.Equal(c.ras, s.ras) {
		return false
	}
	return true
}

// Equal is the strict bit-for-bit comparison of two snapshots,
// including dead state: three flat slab compares plus the scalars and
// queues. Tests use it to assert Restore(Snapshot()) round-trips every
// structure bit.
func (s *CoreState) Equal(o *CoreState) bool {
	if s.ROBHead != o.ROBHead || s.ROBCount != o.ROBCount ||
		s.LQHead != o.LQHead || s.LQCount != o.LQCount ||
		s.SQHead != o.SQHead || s.SQCount != o.SQCount ||
		s.RASTop != o.RASTop || s.FreeCount != o.FreeCount ||
		s.FetchPC != o.FetchPC || s.FetchStall != o.FetchStall || s.FetchFrozen != o.FetchFrozen ||
		s.Cycle != o.Cycle || s.Seq != o.Seq || s.ExpectPC != o.ExpectPC || s.Halted != o.Halted ||
		s.SquashedAfter != o.SquashedAfter || s.IQCount != o.IQCount || s.PRFLive != o.PRFLive ||
		s.Stats != o.Stats {
		return false
	}
	if (s.Crash != nil) != (o.Crash != nil) || (s.Crash != nil && *s.Crash != *o.Crash) {
		return false
	}
	return slices.Equal(s.u64, o.u64) && slices.Equal(s.u16, o.u16) && bytes.Equal(s.u8, o.u8) &&
		slices.Equal(s.FetchQ, o.FetchQ) && slices.Equal(s.Inflight, o.Inflight) &&
		slices.Equal(s.Output, o.Output)
}
