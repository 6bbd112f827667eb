package binanalysis

import (
	"fmt"
	"sort"

	"sevsim/internal/cpu"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
)

// RFPruner proves sampled register-file faults masked without
// simulating them, by combining the static dead-register sets with the
// golden run's commit trace.
//
// The argument: a flip at cycle c lands in the committed machine state
// as of c (the commit hook fires before the cycle's pipeline step, so
// commits recorded at cycle c happen after the flip). Reconstructing
// the committed rename map at c tells us which architectural register a
// the flipped physical register p currently holds. If a is statically
// dead after the last committed instruction — no static path from that
// point reads a before redefining it — then no execution, including any
// wrong-path instructions the front end speculatively fetches (every
// speculative path is also a static path, and squashed work only
// perturbs timing within the 2x timeout budget), can consume the
// corrupted value. The fault is provably Masked.
//
// Conservative exclusions, each returning "not prunable":
//   - physical register 0: permanently maps the zero register;
//   - physical registers not in the committed rename map: they are
//     free, or in flight as a speculative destination whose liveness
//     the committed-state analysis cannot bound;
//   - a last-commit PC outside the code image.
//
// RFPruner is safe for concurrent use.
type RFPruner struct {
	a            *Analysis
	events       *cpu.CommitTrace // the experiment's own trace, indexed in place
	xlen         int
	numPhys      int
	numArch      int
	goldenCycles uint64

	// RAT snapshots every ckptInterval events; query replay touches at
	// most ckptInterval events past a snapshot.
	ckpts [][]uint16
}

const ckptInterval = 1024

// NewRFPruner builds the pruner for one traced experiment. The
// analysis must come from the same binary the experiment runs.
func NewRFPruner(a *Analysis, exp *faultinj.Experiment) (*RFPruner, error) {
	if exp.Trace == nil {
		return nil, fmt.Errorf("binanalysis: experiment has no commit trace (use NewTracedExperiment)")
	}
	cfg := exp.Config.CPU
	p := &RFPruner{
		a:            a,
		events:       exp.Trace,
		xlen:         cfg.XLEN,
		numPhys:      cfg.NumPhysRegs,
		numArch:      cfg.NumArchRegs,
		goldenCycles: exp.GoldenCycles,
	}
	// Initial committed rename map is the identity over the
	// architectural registers (see cpu.NewCore).
	rat := make([]uint16, p.numArch)
	for a := range rat {
		rat[a] = uint16(a)
	}
	for k := 0; k < p.events.Len(); k++ {
		ev := p.events.At(k)
		if k%ckptInterval == 0 {
			p.ckpts = append(p.ckpts, append([]uint16(nil), rat...))
		}
		if ev.DestArch != cpu.NoDest && int(ev.DestArch) < p.numArch {
			rat[ev.DestArch] = ev.DestPhys
		}
	}
	return p, nil
}

// idxOf maps a committed PC to its instruction index, or -1 when the
// PC lies outside the code image.
func (p *RFPruner) idxOf(pc uint64) int {
	if pc < machine.CodeBase || (pc-machine.CodeBase)%4 != 0 {
		return -1
	}
	idx := int((pc - machine.CodeBase) / 4)
	if idx >= len(p.a.CFG.Code) {
		return -1
	}
	return idx
}

// stateAt returns the number of events committed strictly before an
// injection at cycle c (the flip precedes same-cycle commits).
func (p *RFPruner) stateAt(c uint64) int {
	return sort.Search(p.events.Len(), func(i int) bool { return p.events.At(i).Cycle >= c })
}

// entryPoint is the program point before the first commit.
const entryPoint = -2

// pointAfter returns the program point in effect once k events have
// committed: the index of the last committed instruction, entryPoint
// when k is 0, or -1 when that PC lies outside the code image. Every
// static fact about the state after k commits is a fact about this
// point, so callers resolve it once per state.
func (p *RFPruner) pointAfter(k int) int {
	if k == 0 {
		return entryPoint
	}
	return p.idxOf(p.events.At(k - 1).PC)
}

// deadAt returns the dead-register set in effect at a program point,
// and false when the state is unanalyzable (PC outside the image).
func (p *RFPruner) deadAt(pt int) (RegSet, bool) {
	switch {
	case pt == entryPoint:
		return p.a.EntryDead(p.numArch), true
	case pt < 0:
		return 0, false
	}
	return p.a.DeadOut(pt, p.numArch), true
}

// ratAt reconstructs the committed rename map after k events.
func (p *RFPruner) ratAt(k int) []uint16 {
	base := k / ckptInterval
	rat := append([]uint16(nil), p.ckpts[base]...)
	for i := base * ckptInterval; i < k; i++ {
		ev := p.events.At(i)
		if ev.DestArch != cpu.NoDest && int(ev.DestArch) < p.numArch {
			rat[ev.DestArch] = ev.DestPhys
		}
	}
	return rat
}

// Prunable implements faultinj.Pruner for the RF target.
func (p *RFPruner) Prunable(t faultinj.Target, inj faultinj.Injection) (bool, string) {
	if t.Name() != "RF" {
		return false, "not an RF injection"
	}
	phys := uint16(inj.Bit / uint64(p.xlen))
	if phys == 0 {
		return false, "phys 0 holds the zero register"
	}
	k := p.stateAt(inj.Cycle)
	dead, ok := p.deadAt(p.pointAfter(k))
	if !ok {
		return false, "last commit PC outside code image"
	}
	rat := p.ratAt(k)
	for a := 1; a < p.numArch; a++ {
		if rat[a] == phys {
			if dead.Has(uint8(a)) {
				return true, fmt.Sprintf("phys %d maps dead arch %d after commit %d", phys, a, k)
			}
			return false, fmt.Sprintf("phys %d maps live arch %d", phys, a)
		}
	}
	return false, fmt.Sprintf("phys %d not in committed rename map", phys)
}

// RFBound is the static vulnerability bound for the RF target of one
// (config, binary) pair: the fraction of the (cycle x bit) injection
// space the pruner proves Masked lower-bounds the Masked rate, so its
// complement upper-bounds the AVF.
//
// The Reg-prefixed fields carry the register-granular bound alongside
// the headline one. For an RFPruner the pairs coincide; for a
// BitPruner the headline fields are the (tighter) bit-granular bound
// and the Reg fields record what register granularity alone proves —
// the gap is the precision bought by known-bits + bit liveness.
type RFBound struct {
	MaskedLB      float64 // provably-masked fraction of the space
	AVFUpperBound float64 // 1 - MaskedLB
	PrunableBits  uint64  // provably-masked (cycle x bit) points
	SpaceBits     uint64  // total (cycle x bit) points

	RegMaskedLB     float64 // register-granular provably-masked fraction
	RegPrunableBits uint64  // register-granular provably-masked points

	// Three-way refinement (DUEPruner; zero for the Masked-only
	// pruners): DueLB lower-bounds the crash-certain (DUE) outcome
	// fraction and SDCUpperBound caps what remains for SDC once both
	// proof classes are subtracted. The provably-masked and
	// provably-DUE point sets are disjoint, so the three fractions
	// partition the space: MaskedLB + DueLB + SDCUpperBound == 1.
	DueLB           float64
	SDCUpperBound   float64
	DuePrunableBits uint64 // provably-DUE (cycle x bit) points
}

// walkIntervals visits the commit trace as a sequence of
// constant-state cycle intervals: the committed state after k events
// is in effect for every injection cycle in (cycle of event k-1, cycle
// of event k], clipped to the golden run's cycle count. f receives
// each interval's event count k and its width in cycles.
func (p *RFPruner) walkIntervals(f func(k int, cycles uint64)) {
	g := p.goldenCycles
	if g == 0 {
		return
	}
	last := g - 1
	c0 := uint64(0) // first injection cycle governed by the current state
	k := 0
	n := p.events.Len()
	for k < n {
		cy := p.events.At(k).Cycle
		j := k
		for j < n && p.events.At(j).Cycle == cy {
			j++
		}
		hi := cy
		if hi > last {
			hi = last
		}
		if c0 <= hi {
			f(k, hi-c0+1)
		}
		c0 = cy + 1
		k = j
	}
	if c0 <= last {
		f(n, g-c0)
	}
}

// pointBits is what one static program point contributes to a bound for
// every cycle it is in effect. All of it depends on the point alone, so
// a Bound walk works it out the first time the trace reaches the point.
type pointBits struct {
	known bool
	reg   uint64   // bits of wholly dead registers
	bit   uint64   // dead bits at the tier's own granularity
	due   []dueReg // registers holding crash-certain bits that are not dead
}

// dueReg is an architectural register with n due-and-not-dead bits.
type dueReg struct{ a, n uint8 }

// sumBound computes a tier's static bound by interval-walking the commit
// trace: at gives the per-cycle contribution of a program point
// (nothing, for an unanalyzable one) and is asked once per distinct
// point; clear gates each listed due register on the reorder window of
// the state the interval is in, and is never called when no point lists
// one. An interval then costs two multiplies.
func (p *RFPruner) sumBound(at func(pt int) pointBits, clear func(k int, a uint8) bool) RFBound {
	b := RFBound{SpaceBits: p.goldenCycles * uint64(p.numPhys) * uint64(p.xlen)}
	if b.SpaceBits == 0 {
		return b
	}
	// Slot pt+2: entryPoint, the unanalyzable point, then the code image.
	table := make([]pointBits, len(p.a.CFG.Code)+2)
	var reg, bit, due uint64
	p.walkIntervals(func(k int, cycles uint64) {
		pt := p.pointAfter(k)
		pb := &table[pt+2]
		if !pb.known {
			*pb = at(pt)
			pb.known = true
		}
		reg += pb.reg * cycles
		bit += pb.bit * cycles
		for _, d := range pb.due {
			if clear(k, d.a) {
				due += uint64(d.n) * cycles
			}
		}
	})
	b.PrunableBits = bit
	b.MaskedLB = float64(bit) / float64(b.SpaceBits)
	b.AVFUpperBound = 1 - b.MaskedLB
	b.RegPrunableBits = reg
	b.RegMaskedLB = float64(reg) / float64(b.SpaceBits)
	b.DuePrunableBits = due
	b.DueLB = float64(due) / float64(b.SpaceBits)
	b.SDCUpperBound = 1 - b.MaskedLB - b.DueLB
	return b
}

// regBitsAt is the register-granular contribution of a point: every
// architectural register is always mapped to exactly one physical
// register, so each dead register contributes XLEN prunable bits
// regardless of which physical slot holds it. An unanalyzable point has
// no dead register.
func (p *RFPruner) regBitsAt(pt int) uint64 {
	dead, _ := p.deadAt(pt)
	return uint64(dead.Count()) * uint64(p.xlen)
}

// Bound computes the static RF bound: within an interval every bit of
// every dead mapped register is provably masked. The per-cycle criterion
// is exactly Prunable's, so the bound equals the pruned fraction of an
// exhaustive campaign.
func (p *RFPruner) Bound() RFBound {
	return p.sumBound(func(pt int) pointBits {
		reg := p.regBitsAt(pt)
		return pointBits{reg: reg, bit: reg}
	}, nil)
}
