package cpu

import (
	"math/bits"

	"sevsim/internal/isa"
	"sevsim/internal/simerr"
)

// rename decodes instructions from the fetch queue, renames their
// registers, and dispatches them into the ROB, issue queue, and
// load/store queues, stopping when a structural resource is exhausted.
func (c *Core) rename() {
	for n := 0; n < c.cfg.FetchWidth && c.fetchLen > 0; n++ {
		slot := &c.fetchQ[c.fetchHead]
		if c.robCount == c.cfg.ROBSize {
			return
		}
		if slot.FetchFault {
			c.seq++
			c.robFault(slot.PC, excBadFetch)
			c.fetchPop()
			continue
		}
		in := slot.In
		f := &c.fetchFacts[c.fetchHead]
		if f.illegal {
			c.seq++
			c.robFault(slot.PC, excIllegal)
			c.fetchPop()
			continue
		}

		needsIQ := f.rob&rDone == 0
		if needsIQ && !c.iqHasRoom() {
			return
		}
		isLoad, isStore := f.rob&rIsLoad != 0, f.rob&rIsStore != 0
		if isLoad && c.lqCount == c.cfg.LQSize {
			return
		}
		if isStore && c.sqCount == c.cfg.SQSize {
			return
		}
		destArch := f.dest
		if destArch != noReg && c.freeCount == 0 {
			return
		}

		c.seq++
		seq := c.seq
		flags := f.rob
		if slot.PredTaken {
			flags |= rPredTaken
		}

		src1, src2 := uint16(0), uint16(0) // phys 0 = always-ready zero
		if f.src1 != noReg {
			src1 = c.rat[f.src1]
		}
		if f.src2 != noReg {
			src2 = c.rat[f.src2]
		}

		destPhys, oldPhys := uint16(noPhys), uint16(noPhys)
		if destArch != noReg {
			oldPhys = c.rat[destArch]
			destPhys = c.popFree()
			c.rat[destArch] = destPhys
		}

		idx := c.robAlloc()
		robIdx := uint16(idx)
		c.robPC[idx] = slot.PC
		c.robSeq[idx] = seq
		c.robOp[idx] = uint8(in.Op)
		c.robArch[idx] = destArch
		c.robDest[idx] = destPhys
		c.robOld[idx] = oldPhys
		c.robLQ[idx] = badIdx
		c.robSQ[idx] = badIdx
		c.robPredTgt[idx] = slot.PredTarget
		c.robActTgt[idx] = 0
		c.robOutVal[idx] = 0
		c.robExc[idx] = excNone
		if in.Op == isa.OpJal {
			// Direct jumps are fully resolved in the front end (the
			// facts carry rResolved|rActTaken for them).
			c.robActTgt[idx] = slot.PC + 4 + uint64(int64(in.Imm))*4
		}
		c.robFlags[idx] = flags

		if isLoad {
			li := c.lqHead + c.lqCount
			if li >= c.cfg.LQSize {
				li -= c.cfg.LQSize
			}
			c.lqCount++
			c.robLQ[idx] = uint16(li)
			c.lqAddr[li] = 0
			c.lqSeq[li] = seq
			c.lqFillAt[li] = 0
			c.lqDest[li] = destPhys
			c.lqROB[li] = robIdx
			c.lqSize[li] = f.memSize
			c.lqFlags[li] = f.lq
			c.lqPending &^= 1 << uint(li) // address not ready yet; clear any stale bit
			c.lqRetry |= 1 << uint(li)    // a new load has met no store yet
		}
		if isStore {
			si := c.sqHead + c.sqCount
			if si >= c.cfg.SQSize {
				si -= c.cfg.SQSize
			}
			c.sqCount++
			c.robSQ[idx] = uint16(si)
			c.sqAddr[si] = 0
			c.sqData[si] = 0
			c.sqSeq[si] = seq
			c.sqROB[si] = robIdx
			c.sqSize[si] = f.memSize
			c.sqFlags[si] = sValid
		}
		if needsIQ {
			c.iqInsert(in.Op, src1, src2, destPhys, robIdx, int64(in.Imm), seq)
		}
		c.fetchPop()
	}
}

// robFault pushes a ROB entry for an instruction that faulted before
// rename (fetch fault or illegal encoding): done immediately, carrying
// only the exception. Every per-entry field is written (robAlloc does
// not zero), with the unused ones zeroed exactly as the old
// zero-then-set allocation left them.
func (c *Core) robFault(pc uint64, exc uint8) {
	idx := c.robAlloc()
	c.robPC[idx] = pc
	c.robSeq[idx] = c.seq
	c.robPredTgt[idx] = 0
	c.robActTgt[idx] = 0
	c.robOutVal[idx] = 0
	c.robDest[idx] = 0
	c.robOld[idx] = 0
	c.robOp[idx] = 0
	c.robFlags[idx] = rDone
	c.robExc[idx] = exc
	c.robArch[idx] = noReg
	c.robLQ[idx] = badIdx
	c.robSQ[idx] = badIdx
}

// fetchPop drops the oldest fetch-queue slot.
func (c *Core) fetchPop() {
	c.fetchHead++
	if c.fetchHead == len(c.fetchQ) {
		c.fetchHead = 0
	}
	c.fetchLen--
}

// fetchPush claims the ring index after the youngest slot; the caller
// writes fetchQ and fetchFacts there. fetch pushes only below
// FetchQueueSize, one short of the ring, so there is always room.
func (c *Core) fetchPush() int {
	i := c.fetchHead + c.fetchLen
	if i >= len(c.fetchQ) {
		i -= len(c.fetchQ)
	}
	c.fetchLen++
	return i
}

// fetchQueue returns the queued slots oldest first as the (at most) two
// contiguous runs they occupy in the ring buffer.
func (c *Core) fetchQueue() (older, younger []fetchSlot) {
	if end := c.fetchHead + c.fetchLen; end > len(c.fetchQ) {
		return c.fetchQ[c.fetchHead:], c.fetchQ[:end-len(c.fetchQ)]
	}
	return c.fetchQ[c.fetchHead : c.fetchHead+c.fetchLen], nil
}

// badRegs reports whether the instruction references a register outside
// the configured architectural register count (possible when a fault
// corrupts an instruction word on a 16-register machine). s1 and s2
// are the caller's in.SourceRegs().
func (c *Core) badRegs(in isa.Instr, s1, s2 uint8) bool {
	n := uint8(c.cfg.NumArchRegs)
	if s1 != noReg && s1 >= n {
		return true
	}
	if s2 != noReg && s2 >= n {
		return true
	}
	switch in.Op.Format() {
	case isa.FmtR, isa.FmtI, isa.FmtJ:
		if in.Rd >= n {
			return true
		}
	}
	return false
}

// iqHasRoom reports whether the issue queue has a free slot. iqCount
// mirrors the number of qValid entries (faults never flip a valid
// bit), so the occupancy counter answers without a scan.
func (c *Core) iqHasRoom() bool {
	return c.iqCount < c.cfg.IQSize
}

func (c *Core) iqInsert(op isa.Opcode, src1, src2, dest, robIdx uint16, imm int64, seq uint64) {
	// First free slot = lowest clear bit of the valid mask, the same
	// slot the old linear scan chose.
	i := bits.TrailingZeros64(^c.iqValid)
	if i >= c.cfg.IQSize {
		simerr.Assertf("cpu: issue queue insert with no free slot")
	}
	flags, slot := uint8(qValid), uint64(1)<<uint(i)
	if c.prfReady[src1] != 0 {
		flags |= qRdy1
	} else {
		c.iqWait(src1, slot)
	}
	if c.prfReady[src2] != 0 {
		flags |= qRdy2
	} else {
		c.iqWait(src2, slot)
	}
	c.iqSrc1[i] = src1
	c.iqSrc2[i] = src2
	c.iqDest[i] = dest
	c.iqROB[i] = robIdx
	c.iqOp[i] = uint8(op)
	c.iqImm[i] = uint64(imm)
	c.iqSeq[i] = seq
	c.iqFlags[i] = flags
	c.iqValid |= slot
	if flags&(qRdy1|qRdy2) == qRdy1|qRdy2 {
		c.iqReady |= slot
	}
	c.iqCount++
}

// renameFacts is everything rename derives from an instruction and the
// configuration, computed once per distinct word instead of once per
// dynamic instruction.
type renameFacts struct {
	src1, src2 uint8 // architectural sources; noReg when absent
	dest       uint8 // architectural destination; noReg when none
	memSize    uint8 // access width of a load or store, else 0
	// rob is the entry's initial robFlags byte: the kind bits, rDone for
	// an instruction that needs no issue-queue slot, rResolved|rActTaken
	// for a direct jump.
	rob     uint8
	lq      uint8 // a load's initial lqFlags byte
	illegal bool  // an encoding this configuration rejects
}

// predecoded is one slot of the direct-mapped predecode memo. Every slot
// holds a consistent (word, decode, facts) triple at all times —
// including after NewCore seeds it with word 0 — so a hit returns
// exactly what isa.Decode and factsOf would, even for fault-corrupted
// words.
type predecoded struct {
	word uint32
	in   isa.Instr
	renameFacts
}

// predecode memoizes isa.Decode, and factsOf with it, through the table.
func (c *Core) predecode(word uint32) *predecoded {
	d := &c.dec[(word^word>>12^word>>22)&(predecodeSlots-1)]
	if d.word != word {
		d.word = word
		d.in = isa.Decode(word)
		d.renameFacts = c.factsOf(d.in)
	}
	return d
}

// factsOf derives the rename facts of a decoded instruction under this
// core's configuration.
func (c *Core) factsOf(in isa.Instr) renameFacts {
	illegal := renameFacts{src1: noReg, src2: noReg, dest: noReg, illegal: true}
	if !in.Op.Valid() {
		return illegal
	}
	s1, s2 := in.SourceRegs()
	if c.badRegs(in, s1, s2) {
		return illegal
	}
	if (in.Op == isa.OpLd || in.Op == isa.OpSd) && c.cfg.XLEN == 32 {
		return illegal
	}
	f := renameFacts{src1: s1, src2: s2, dest: in.DestReg(), memSize: uint8(in.Op.MemSize())}
	switch {
	case in.Op.IsLoad():
		f.rob = rIsLoad
		f.lq = lValid
		if in.Op != isa.OpLbu {
			f.lq |= lSignExt
		}
	case in.Op.IsStore():
		f.rob = rIsStore
	case in.Op.IsBranch() || in.Op == isa.OpJalr:
		f.rob = rIsBranch
	case in.Op == isa.OpJal:
		f.rob = rResolved | rActTaken
	case in.Op == isa.OpHalt || in.Op == isa.OpNop:
		f.rob = rDone
	}
	return f
}

// fetch brings up to FetchWidth instruction words from the L1I cache
// into the fetch queue, following predicted control flow.
func (c *Core) fetch() {
	if c.fetchFrozen || c.cycle < c.fetchStall {
		return
	}
	for n := 0; n < c.cfg.FetchWidth && c.fetchLen < c.cfg.FetchQueueSize; n++ {
		pc := c.fetchPC
		// Fast path: an aligned pc inside the memoized executable span
		// cannot fault, so the region walk is skipped. The span starts
		// empty and is refilled from the (immutable) address map after
		// every successful slow-path check.
		if pc&3 != 0 || pc < c.fetchSpanLo || pc > c.fetchSpanHi {
			if f := c.memory.CheckFetch(pc); f != nil {
				c.fetchQ[c.fetchPush()] = fetchSlot{PC: pc, FetchFault: true}
				c.fetchFrozen = true
				return
			}
			if base, size, ok := c.memory.ExecSpan(pc); ok {
				c.fetchSpanLo, c.fetchSpanHi = base, base+size-4
			}
		}
		word64, lat := c.icache.Read(pc, 4)
		word := uint32(word64)
		if lat > c.icache.Config().HitLatency {
			// Miss: the word arrives after the miss penalty; block the
			// front end for the difference.
			c.fetchStall = c.cycle + uint64(lat-c.icache.Config().HitLatency)
		}
		c.Stats.Fetched++
		d := c.predecode(word)
		in := d.in
		// Claim the slot first, then fill it through the pointer; the
		// facts rename will want ride beside it, outside the snapshot.
		i := c.fetchPush()
		c.fetchFacts[i] = d.renameFacts
		slot := &c.fetchQ[i]
		*slot = fetchSlot{PC: pc, Word: word, In: in}
		stop := false
		switch {
		case in.Op == isa.OpJal:
			slot.PredTaken = true
			slot.PredTarget = pc + 4 + uint64(int64(in.Imm))*4
			if in.Rd == isa.RegRA {
				c.pushRAS(pc + 4)
			}
			c.fetchPC = slot.PredTarget
			stop = true
		case in.Op == isa.OpJalr:
			var target uint64
			var ok bool
			if in.Rd == isa.RegZero && in.Rs1 == isa.RegRA {
				target, ok = c.popRAS()
			} else {
				target, ok = c.predictIndirect(pc)
			}
			if in.Rd == isa.RegRA {
				c.pushRAS(pc + 4)
			}
			if ok {
				slot.PredTaken = true
				slot.PredTarget = target
				c.fetchPC = target
				stop = true
			} else {
				c.fetchPC = pc + 4 // will mispredict at execute
			}
		case in.Op.IsBranch():
			if c.predictCond(pc) {
				slot.PredTaken = true
				slot.PredTarget = pc + 4 + uint64(int64(in.Imm))*4
				c.fetchPC = slot.PredTarget
				stop = true
			} else {
				c.fetchPC = pc + 4
			}
		case in.Op == isa.OpHalt:
			c.fetchFrozen = true
			stop = true
			c.fetchPC = pc + 4
		default:
			c.fetchPC = pc + 4
		}
		if stop {
			return
		}
		if c.fetchStall > c.cycle {
			return
		}
	}
}

// squash removes every instruction younger than afterSeq from the
// pipeline, restores the rename map from the ROB, and redirects fetch.
func (c *Core) squash(afterSeq uint64, newPC uint64) {
	for c.robCount > 0 {
		tail := c.robHead + c.robCount - 1
		if tail >= c.cfg.ROBSize {
			tail -= c.cfg.ROBSize
		}
		if c.robSeq[tail] <= afterSeq {
			break
		}
		if c.robArch[tail] != noReg {
			if c.robArch[tail] >= uint8(c.cfg.NumArchRegs) {
				simerr.Assertf("cpu: squash with corrupt arch dest %d", c.robArch[tail])
			}
			if int(c.robOld[tail]) >= c.cfg.NumPhysRegs {
				simerr.Assertf("cpu: squash with corrupt old mapping %d", c.robOld[tail])
			}
			c.rat[c.robArch[tail]] = c.robOld[tail]
			c.freePhys(c.robDest[tail])
		}
		c.robCount-- // deallocate the slot, leaving its bytes in place
	}
	for c.lqCount > 0 {
		tail := c.lqHead + c.lqCount - 1
		if tail >= c.cfg.LQSize {
			tail -= c.cfg.LQSize
		}
		if c.lqSeq[tail] <= afterSeq {
			break
		}
		c.lqCount--
		c.lqPending &^= 1 << uint(tail)
	}
	for c.sqCount > 0 {
		tail := c.sqHead + c.sqCount - 1
		if tail >= c.cfg.SQSize {
			tail -= c.cfg.SQSize
		}
		if c.sqSeq[tail] <= afterSeq {
			break
		}
		c.sqCount--
	}
	c.lqRetry = ^uint64(0)
	for m := c.iqValid; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if c.iqSeq[i] > afterSeq {
			c.iqFlags[i] &^= qValid
			c.iqValid &^= 1 << uint(i)
			c.iqReady &^= 1 << uint(i)
			c.iqCount--
		}
	}
	n := 0
	for _, op := range c.inflight[:c.nInflight] {
		if op.Seq <= afterSeq {
			c.inflight[n] = op
			n++
		}
	}
	c.nInflight = n
	c.fetchHead, c.fetchLen = 0, 0
	c.fetchFrozen = false
	c.fetchStall = 0
	c.fetchPC = newPC
}
