package binanalysis

import (
	"fmt"
	"math/bits"

	"sevsim/internal/faultinj"
)

// BitPruner generalizes RFPruner to bit granularity: an RF injection
// is provably Masked not only when the flipped physical register maps
// a dead architectural register, but also when it maps a LIVE register
// whose specific flipped bit is statically dead (bit-level liveness
// joined with known-bits, see BitAnalysis).
//
// The soundness argument extends RFPruner's. A flip at cycle c lands
// in the committed state as of c; the committed rename map names the
// architectural register a holding the flipped physical register, and
// the last committed PC names the program point. DeadOutBits(point, a)
// is the set of bits of a that no static path from the point can
// propagate to memory, output, or control flow — where demand
// refinement consulted known-bits facts, those facts concern registers
// other than a, which carry fault-free values under the single-fault
// model, so the refinement holds on the faulted run too. Speculative
// wrong-path work is squashed without architectural effect and cannot
// stretch timing past the 2x budget (fixed ALU latencies), exactly as
// in the register-granular argument.
//
// BitPruner is safe for concurrent use.
type BitPruner struct {
	*RFPruner
	bits *BitAnalysis
}

// NewBitPruner builds the bit-granular pruner for one traced
// experiment. The analysis must come from the same binary the
// experiment runs; the bit-granular fixpoints are computed (or
// re-used) via the Analysis.Bits cache, so building pruners for many
// cells of the same (bench, level) shares one analysis.
func NewBitPruner(a *Analysis, exp *faultinj.Experiment) (*BitPruner, error) {
	rp, err := NewRFPruner(a, exp)
	if err != nil {
		return nil, err
	}
	return &BitPruner{RFPruner: rp, bits: a.Bits(rp.xlen)}, nil
}

// deadBitsAt returns the dead-bit mask of architectural register a at
// a program point (0 when the state is unanalyzable).
func (p *BitPruner) deadBitsAt(pt int, a uint8) uint64 {
	switch {
	case pt == entryPoint:
		return p.bits.EntryDeadBits(a)
	case pt < 0:
		return 0
	}
	return p.bits.DeadOutBits(pt, a)
}

// PrunableKind implements faultinj.KindPruner for the RF target.
func (p *BitPruner) PrunableKind(t faultinj.Target, inj faultinj.Injection) (faultinj.PruneKind, string) {
	if t.Name() != "RF" {
		return faultinj.PruneNone, "not an RF injection"
	}
	phys := uint16(inj.Bit / uint64(p.xlen))
	bit := inj.Bit % uint64(p.xlen)
	if phys == 0 {
		return faultinj.PruneNone, "phys 0 holds the zero register"
	}
	k := p.stateAt(inj.Cycle)
	pt := p.pointAfter(k)
	dead, ok := p.deadAt(pt)
	if !ok {
		return faultinj.PruneNone, "last commit PC outside code image"
	}
	rat := p.ratAt(k)
	for a := 1; a < p.numArch; a++ {
		if rat[a] != phys {
			continue
		}
		if dead.Has(uint8(a)) {
			return faultinj.PruneReg, fmt.Sprintf("phys %d maps dead arch %d after commit %d", phys, a, k)
		}
		if p.deadBitsAt(pt, uint8(a))&(1<<bit) != 0 {
			return faultinj.PruneBit, fmt.Sprintf("phys %d maps arch %d whose bit %d is dead after commit %d", phys, a, bit, k)
		}
		return faultinj.PruneNone, fmt.Sprintf("phys %d maps arch %d with live bit %d", phys, a, bit)
	}
	return faultinj.PruneNone, fmt.Sprintf("phys %d not in committed rename map", phys)
}

// Prunable implements faultinj.Pruner by delegating to PrunableKind,
// shadowing the embedded register-granular implementation.
func (p *BitPruner) Prunable(t faultinj.Target, inj faultinj.Injection) (bool, string) {
	kind, reason := p.PrunableKind(t, inj)
	return kind != faultinj.PruneNone, reason
}

// bitsAt is the bit-granular contribution of a point, without due
// registers: the register-granular bits and the summed dead-bit count
// (both zero for an unanalyzable point).
func (p *BitPruner) bitsAt(pt int) pointBits {
	pb := pointBits{reg: p.regBitsAt(pt)}
	for a := 1; a < p.numArch; a++ {
		pb.bit += uint64(bits.OnesCount64(p.deadBitsAt(pt, uint8(a))))
	}
	return pb
}

// Bound computes the bit-granular static RF bound, recording the
// register-granular bound alongside it in the Reg fields. Because
// DeadOutBits contains the full mask for every register DeadOut
// reports dead, the headline bound dominates the register one on every
// cell by construction.
func (p *BitPruner) Bound() RFBound { return p.sumBound(p.bitsAt, nil) }
