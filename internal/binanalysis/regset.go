// Package binanalysis is the binary-level ACE/liveness analyzer: it
// reconstructs a control-flow graph from assembled SEV instructions,
// runs backward architectural-register liveness to fixpoint on the
// package's one worklist solver (solve.go), and derives from it
//
//   - dead-register sets at every program point (a register is dead at
//     a point when no path from that point reads it before redefining
//     it),
//   - a binary invariant checker (use-before-def at entry, stack-pointer
//     balance across calls, control-transfer targets in range), and
//   - a statically sound injection pruner plus Masked/AVF bounds for
//     the physical register file, combining the static dead sets with a
//     golden run's commit trace.
//
// The analyzer is the static counterpart of the statistical fault
// injector: ACE analysis (Mukherjee et al.) classifies a bit un-ACE
// whenever the value holding it is dead, which lower-bounds the Masked
// rate and upper-bounds the AVF without simulating a single fault.
package binanalysis

import (
	"math/bits"
	"strings"

	"sevsim/internal/isa"
)

// RegSet is a set of architectural registers (0..31) as a bitmask.
type RegSet uint32

// AllRegs is the universe: every architectural register the ISA can
// name. Using the full 32-register universe regardless of the machine
// configuration is conservative; dead sets are intersected with the
// configured register count by consumers.
const AllRegs RegSet = ^RegSet(0)

// Has reports whether register r is in the set.
func (s RegSet) Has(r uint8) bool { return r < 32 && s&(1<<r) != 0 }

// With returns the set with register r added.
func (s RegSet) With(r uint8) RegSet {
	if r >= 32 {
		return s
	}
	return s | 1<<r
}

// Without returns the set with register r removed.
func (s RegSet) Without(r uint8) RegSet {
	if r >= 32 {
		return s
	}
	return s &^ (1 << r)
}

// Count returns the number of registers in the set.
func (s RegSet) Count() int { return bits.OnesCount32(uint32(s)) }

// String lists the registers by conventional name.
func (s RegSet) String() string {
	if s == 0 {
		return "{}"
	}
	var names []string
	for r := uint8(0); r < 32; r++ {
		if s.Has(r) {
			names = append(names, isa.RegName(r))
		}
	}
	return "{" + strings.Join(names, ",") + "}"
}

// uses returns the registers an instruction reads.
func uses(in isa.Instr) RegSet {
	var s RegSet
	s1, s2 := in.SourceRegs()
	if s1 != 0xff {
		s = s.With(s1)
	}
	if s2 != 0xff {
		s = s.With(s2)
	}
	return s
}

// def returns the architectural register the instruction writes, or
// 0xff when it writes none (register 0 is hard-wired and never a def).
func def(in isa.Instr) uint8 { return in.DestReg() }
