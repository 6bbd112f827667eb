package binanalysis

// BitAnalysis joins the forward known-bits interpretation with the
// backward bit-level liveness into per-instruction dead-bit masks. It
// strictly subsumes the register-granular results: a register that
// DeadOut reports dead contributes a full dead mask, and a live
// register may still expose individual provably dead bits (masked-off
// lanes, shift-count high bits, compare inputs with decided outcomes).

import "sevsim/internal/isa"

// BitAnalysis holds the bit-granular results for one binary at one
// machine word width. Obtain it via Analysis.Bits.
type BitAnalysis struct {
	XLEN int
	Mask uint64 // low-XLEN-bits value mask

	a *Analysis

	// Flattened [instruction*32 + register] masks: liveOut is the
	// live-bit mask after the instruction, dueOut the crash-certain
	// (must-DUE) mask from the fault-propagation analysis
	// (propagate.go). liveEntry and dueEntry are the same masks before
	// the first instruction commits.
	liveOut, dueOut     []uint64
	liveEntry, dueEntry [32]uint64
}

// Bits runs the bit-granular fixpoints for the given word width and
// keeps only what the accessors below read: the known-bits masks and
// the full before-instruction tables are dropped once the fixpoints
// have used them.
func (a *Analysis) Bits(xlen int) *BitAnalysis {
	kz, ko := computeKnownBits(a.CFG, xlen)
	liveIn, liveOut, sd := computeBitLiveness(a.CFG, kz, ko, xlen)
	dueIn, dueOut := computeDueBits(a.CFG, kz, ko, liveOut, sd, xlen)
	b := &BitAnalysis{XLEN: xlen, Mask: xlenMask(xlen), a: a, liveOut: liveOut, dueOut: dueOut}
	copy(b.liveEntry[:], liveIn)
	copy(b.dueEntry[:], dueIn)
	return b
}

// residentBytes returns the memory of the per-instruction mask tables
// and the entry rows.
func (b *BitAnalysis) residentBytes() int {
	return 8 * (cap(b.liveOut) + cap(b.dueOut) + 2*32)
}

// DeadOutBits returns the bits of register r provably dead immediately
// after instruction i: flipping any of them in a committed state
// cannot change any architecturally visible outcome. Register-granular
// deadness is OR'd in, so the result always contains (and may strictly
// exceed) what DeadOut implies; register 0 is excluded for the same
// reason DeadOut excludes it.
func (b *BitAnalysis) DeadOutBits(i int, r uint8) uint64 {
	if r == uint8(isa.RegZero) || r >= 32 {
		return 0
	}
	if !b.a.LiveOut[i].Has(r) {
		return b.Mask
	}
	return ^b.liveOut[i*32+int(r)] & b.Mask
}

// EntryDeadBits mirrors DeadOutBits for the state before the first
// instruction commits.
func (b *BitAnalysis) EntryDeadBits(r uint8) uint64 {
	if r == uint8(isa.RegZero) || r >= 32 {
		return 0
	}
	if !b.a.LiveIn[0].Has(r) {
		return b.Mask
	}
	return ^b.liveEntry[r] & b.Mask
}

// DueOutBits returns the bits of register r that are crash-certain
// immediately after instruction i: flipping any of them in a committed
// state deterministically reaches a faulting consumer on every static
// path before any demand — in particular before any output — per the
// must-DUE analysis in propagate.go. The mask says nothing about
// pipeline state; callers must separately ensure no in-flight reader
// can have consumed the clean value (see DUEPruner's reorder-window
// gate). Crash-certain and dead masks are disjoint by construction
// (a due bit is demanded by its faulting consumer, hence live).
func (b *BitAnalysis) DueOutBits(i int, r uint8) uint64 {
	if r == uint8(isa.RegZero) || r >= 32 {
		return 0
	}
	return b.dueOut[i*32+int(r)]
}

// EntryDueBits mirrors DueOutBits for the state before the first
// instruction commits.
func (b *BitAnalysis) EntryDueBits(r uint8) uint64 {
	if r == uint8(isa.RegZero) || r >= 32 {
		return 0
	}
	return b.dueEntry[r]
}
