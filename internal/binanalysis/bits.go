package binanalysis

// BitAnalysis joins the forward known-bits interpretation with the
// backward bit-level liveness into per-point dead-bit masks. It
// strictly subsumes the register-granular results: a register that
// Analysis.Dead reports dead contributes a full dead mask, and a live
// register may still expose individual provably dead bits (masked-off
// lanes, shift-count high bits, compare inputs with decided outcomes).

import "sevsim/internal/isa"

// BitAnalysis holds the bit-granular results for one binary at one
// machine word width, indexed by program point as Analysis.Live is.
// Obtain it via Analysis.Bits.
type BitAnalysis struct {
	XLEN int
	Mask uint64 // low-XLEN-bits value mask

	a *Analysis

	// live holds the live-bit masks of every register at each point, due
	// the crash-certain (must-DUE) masks from the fault-propagation
	// analysis (propagate.go).
	live, due [][32]uint64
}

// Bits runs the bit-granular fixpoints for the given word width and
// keeps only what the accessors below read: the known-bits masks are
// dropped once the fixpoints have used them.
func (a *Analysis) Bits(xlen int) *BitAnalysis {
	kz, ko := computeKnownBits(a.CFG, xlen)
	live := bitLive(a.CFG, kz, ko, xlen).solve()
	return &BitAnalysis{XLEN: xlen, Mask: xlenMask(xlen), a: a, live: live,
		due: mustDUE(a.CFG, kz, ko, live, xlen).solve()}
}

// residentBytes returns the memory of the per-point mask tables.
func (b *BitAnalysis) residentBytes() int {
	return 8 * 32 * (cap(b.live) + cap(b.due))
}

// DeadBits returns the bits of register r provably dead at program
// point pt: flipping any of them in a committed state cannot change any
// architecturally visible outcome. Register-granular deadness is OR'd
// in, so the result always contains (and may strictly exceed) what
// Analysis.Dead implies; register 0 is excluded for the same reason
// Dead excludes it, and an unanalyzable point (pt < 0) has none.
func (b *BitAnalysis) DeadBits(pt int, r uint8) uint64 {
	if pt < 0 || r == uint8(isa.RegZero) || r >= 32 {
		return 0
	}
	if !b.a.Live[pt].Has(r) {
		return b.Mask
	}
	return ^b.live[pt][r] & b.Mask
}

// DueBits returns the bits of register r that are crash-certain at
// program point pt: flipping any of them in a committed state
// deterministically reaches a faulting consumer on every static path
// before any demand — in particular before any output — per the
// must-DUE analysis in propagate.go. The mask says nothing about
// pipeline state; callers must separately ensure no in-flight reader
// can have consumed the clean value (see DUEPruner's reorder-window
// gate). Crash-certain and dead masks are disjoint by construction
// (a due bit is demanded by its faulting consumer, hence live).
func (b *BitAnalysis) DueBits(pt int, r uint8) uint64 {
	if pt < 0 || r == uint8(isa.RegZero) || r >= 32 {
		return 0
	}
	return b.due[pt][r]
}
