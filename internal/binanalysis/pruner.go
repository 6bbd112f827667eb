package binanalysis

import (
	"fmt"
	"math/bits"
	"sort"

	"sevsim/internal/cpu"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
)

// DUEPruner classifies sampled register-file faults without simulating
// them, by combining the static analyses of the binary with the golden
// run's commit trace. It gives three verdicts, tried in this order:
// the flipped register is dead (PruneReg, Masked), the flipped bit of a
// live register is dead (PruneBit, Masked), the flipped bit is
// crash-certain (PruneDUE, Crash).
//
// The Masked argument: a flip at cycle c lands in the committed machine
// state as of c (the commit hook fires before the cycle's pipeline step,
// so commits recorded at cycle c happen after the flip). Reconstructing
// the committed rename map at c tells us which architectural register a
// the flipped physical register p currently holds, and the last
// committed PC names the program point. If a is statically dead there —
// no static path from that point reads a before redefining it — then no
// execution, including any wrong-path instructions the front end
// speculatively fetches (every speculative path is also a static path,
// and squashed work only perturbs timing within the 2x timeout budget),
// can consume the corrupted value. The same holds bit by bit:
// DeadBits(point, a) is the set of bits of a that no static path from
// the point can propagate to memory, output, or control flow — where
// demand refinement consulted known-bits facts, those facts concern
// registers other than a, which carry fault-free values under the
// single-fault model, so the refinement holds on the faulted run too.
//
// Conservative exclusions, each returning "not prunable":
//   - physical register 0: permanently maps the zero register;
//   - physical registers not in the committed rename map: they are
//     free, or in flight as a speculative destination whose liveness
//     the committed-state analysis cannot bound;
//   - a last-commit PC outside the code image.
//
// The static side of the Crash argument is DueBits: a due bit of a,
// taken at the point after the last committed instruction, reaches a
// faulting consumer on every static path — so in particular on the
// golden continuation — before any instruction can demand it for a
// value, address, branch, or output. The crash masks rely only on fault-free alignment and
// address-ceiling invariants, never on the judged register's own known
// bits, and addrCeilOK re-validates the ceiling against the concrete
// program layout before the verdict switches on.
//
// The microarchitectural side needs one gate the Masked verdicts do
// not: a crash verdict (unlike a masked one) is falsified if any
// reader consumes the clean pre-flip value. An instruction at trace
// position j can have renamed — and read the physical register —
// before the flip at state k only while it shares the reorder window
// with position k: position j allocates its ROB entry no earlier than
// the commit of position j-ROBSize (ROB occupancy is bounded and both
// commit and rename are in order), and that commit happens at or after
// the flip cycle once j-k >= ROBSize. The pruner therefore claims DUE
// only when the FIRST golden reader of the register lies at least
// ROBSize commits past the flip point; the faulting consumer is that
// reader or later, so it renames — and reads the corrupted value —
// strictly after the flip. Squashed wrong-path work cannot rescue the
// value either: the flipped physical register stays architecturally
// mapped until the crash, so no speculative destination reallocates it.
//
// Timing: the proven crash surfaces when the faulting consumer
// commits, near its golden commit cycle; as with the Masked verdicts,
// squashed work perturbs timing only within the 2x timeout budget, so
// the run registers as a Crash, not a Timeout. The soundness test
// re-simulates every sampled verdict and asserts its outcome.
//
// Beside the trace it indexes in place and the bit masks, the pruner
// holds the rename map every ckptInterval events, the register set each
// static instruction reads and each register's last golden reader;
// nothing grows with the number of register reads in the run. It reads
// every static fact at a program point, indexed as Analysis.Live is:
// the state after k commits is at the point after the k-th committed
// instruction, the state before any commit at point 0, and a PC outside
// the code image gives no point (-1) and no verdict.
//
// DUEPruner is safe for concurrent use.
type DUEPruner struct {
	a            *Analysis
	bits         *BitAnalysis
	events       *cpu.CommitTrace // the experiment's own trace, indexed in place
	xlen         int
	numPhys      int
	numArch      int
	robSize      int
	goldenCycles uint64
	dueOK        bool // address-ceiling layout validated

	// ckpts holds the committed rename map every ckptInterval events,
	// numArch entries each; query replay touches at most ckptInterval
	// events past a snapshot.
	ckpts []uint16

	// reads[idx] is the set of registers (bit r for register r < 32)
	// static instruction idx reads; outOfImage is what a PC outside the
	// code image reads: every register but r0.
	reads []uint32

	// lastRead[a] is the last trace position whose instruction reads
	// register a, -1 when none does. With a scan of the reorder window
	// it answers the crash verdict's window test (windowClear).
	lastRead [32]int32
}

const (
	ckptInterval = 1024
	outOfImage   = ^uint32(1)
)

// NewDUEPruner builds the pruner for one traced experiment. The
// analysis must come from the same binary the experiment runs; the
// bit-granular fixpoints for the machine's word width are run on it
// (Analysis.Bits), and the pruner is the only holder of their masks.
// The Crash verdict disables itself, leaving the two Masked ones, when
// the program's memory layout exceeds the address ceiling the crash
// masks assume.
func NewDUEPruner(a *Analysis, exp *faultinj.Experiment) (*DUEPruner, error) {
	if exp.Trace == nil {
		return nil, fmt.Errorf("binanalysis: experiment has no commit trace (use NewTracedExperiment)")
	}
	cfg := exp.Config.CPU
	p := &DUEPruner{
		a:            a,
		bits:         a.Bits(cfg.XLEN),
		events:       exp.Trace,
		xlen:         cfg.XLEN,
		numPhys:      cfg.NumPhysRegs,
		numArch:      cfg.NumArchRegs,
		robSize:      cfg.ROBSize,
		goldenCycles: exp.GoldenCycles,
		dueOK:        addrCeilOK(len(a.CFG.Code), exp.Program.GlobalSize),
		reads:        make([]uint32, len(a.CFG.Code)),
	}
	for idx, in := range a.CFG.Code {
		s1, s2 := in.SourceRegs()
		for _, r := range [2]uint8{s1, s2} {
			if r < 32 {
				p.reads[idx] |= 1 << r
			}
		}
	}
	for r := range p.lastRead {
		p.lastRead[r] = -1
	}
	// One pass over the trace snapshots the rename map and records each
	// register's last reader. The initial committed rename map is the
	// identity over the architectural registers (see cpu.NewCore).
	n := p.events.Len()
	p.ckpts = make([]uint16, 0, (n+ckptInterval-1)/ckptInterval*p.numArch)
	var rat [32]uint16
	for a := range rat {
		rat[a] = uint16(a)
	}
	for k := 0; k < n; k++ {
		ev := p.events.At(k)
		if k%ckptInterval == 0 {
			p.ckpts = append(p.ckpts, rat[:p.numArch]...)
		}
		if ev.DestArch != cpu.NoDest && int(ev.DestArch) < p.numArch {
			rat[ev.DestArch] = ev.DestPhys
		}
		for m := p.readsOf(ev.PC); m != 0; m &= m - 1 {
			p.lastRead[bits.TrailingZeros32(m)] = int32(k)
		}
	}
	return p, nil
}

// ResidentBytes returns the memory of the tables the pruner built: the
// bit-granular masks, the per-instruction read sets, the last-read
// table and the rename-map snapshots over the trace. The trace and the
// Analysis it was built from are counted on their own.
func (p *DUEPruner) ResidentBytes() int {
	return p.bits.residentBytes() + 4*cap(p.reads) + 4*len(p.lastRead) + 2*cap(p.ckpts)
}

// readsOf returns the set of registers the instruction at pc reads.
func (p *DUEPruner) readsOf(pc uint64) uint32 {
	idx := p.idxOf(pc)
	if idx < 0 {
		return outOfImage
	}
	return p.reads[idx]
}

// idxOf maps a committed PC to its instruction index, or -1 when the
// PC lies outside the code image.
func (p *DUEPruner) idxOf(pc uint64) int {
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
func (p *DUEPruner) stateAt(c uint64) int {
	return sort.Search(p.events.Len(), func(i int) bool { return p.events.At(i).Cycle >= c })
}

// pointAfter returns the program point in effect once k events have
// committed (Analysis.Live's indexing): 0 when k is 0, else the point
// after the last committed instruction, -1 when its PC lies outside the
// code image. Every static fact about the state after k commits is a
// fact about this point, so callers resolve it once per state.
func (p *DUEPruner) pointAfter(k int) int {
	if k == 0 {
		return 0
	}
	return p.pointOf(p.events.At(k - 1).PC)
}

// pointOf returns the program point right after the instruction at pc
// commits, or -1 when pc lies outside the code image.
func (p *DUEPruner) pointOf(pc uint64) int {
	if idx := p.idxOf(pc); idx >= 0 {
		return idx + 1
	}
	return -1
}

// ratAt reconstructs the committed rename map after k events; entries
// from numArch up are unused. The ISA's 5-bit register fields bound
// numArch by 32.
func (p *DUEPruner) ratAt(k int) [32]uint16 {
	var rat [32]uint16
	base := k / ckptInterval
	copy(rat[:], p.ckpts[base*p.numArch:(base+1)*p.numArch])
	for i := base * ckptInterval; i < k; i++ {
		ev := p.events.At(i)
		if ev.DestArch != cpu.NoDest && int(ev.DestArch) < p.numArch {
			rat[ev.DestArch] = ev.DestPhys
		}
	}
	return rat
}

// windowClear reports whether the first golden reader of architectural
// register a at or past state k lies at least ROBSize commits away, so
// no in-flight instruction can have read the register before the flip.
// A register with no reader ahead reports false: the must-DUE masks
// guarantee a faulting reader exists whenever a due bit is set, so
// this only suppresses (never unsoundly admits) a claim. The reader
// past the window is the first from k when none of the ROBSize events
// from k reads a.
func (p *DUEPruner) windowClear(k int, a uint8) bool {
	if !p.readPast(k, a) {
		return false
	}
	for j := k; j < k+p.robSize; j++ {
		if p.readsOf(p.events.At(j).PC)&(1<<a) != 0 {
			return false
		}
	}
	return true
}

// readPast reports whether some golden reader of register a lies at or
// past state k+ROBSize: whether the last one does.
func (p *DUEPruner) readPast(k int, a uint8) bool {
	return int(p.lastRead[a]) >= k+p.robSize
}

// PrunableKind implements faultinj.KindPruner for the RF target: dead
// register, dead bit, due bit, in that order.
func (p *DUEPruner) PrunableKind(t faultinj.Target, inj faultinj.Injection) (faultinj.PruneKind, string) {
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
	if pt < 0 {
		return faultinj.PruneNone, "last commit PC outside code image"
	}
	dead := p.a.Dead(pt, p.numArch)
	rat := p.ratAt(k)
	for a := 1; a < p.numArch; a++ {
		if rat[a] != phys {
			continue
		}
		if dead.Has(uint8(a)) {
			return faultinj.PruneReg, fmt.Sprintf("phys %d maps dead arch %d after commit %d", phys, a, k)
		}
		if p.bits.DeadBits(pt, uint8(a))&(1<<bit) != 0 {
			return faultinj.PruneBit, fmt.Sprintf("phys %d maps arch %d whose bit %d is dead after commit %d", phys, a, bit, k)
		}
		if p.dueOK && p.bits.DueBits(pt, uint8(a))&(1<<bit) != 0 && p.windowClear(k, uint8(a)) {
			return faultinj.PruneDUE, fmt.Sprintf("phys %d maps arch %d whose bit %d is crash-certain after commit %d", phys, a, bit, k)
		}
		return faultinj.PruneNone, fmt.Sprintf("phys %d maps arch %d with live bit %d", phys, a, bit)
	}
	return faultinj.PruneNone, fmt.Sprintf("phys %d not in committed rename map", phys)
}

// Prunable implements faultinj.Pruner: whether PrunableKind has a
// verdict.
func (p *DUEPruner) Prunable(t faultinj.Target, inj faultinj.Injection) (bool, string) {
	kind, reason := p.PrunableKind(t, inj)
	return kind != faultinj.PruneNone, reason
}

// RFBound is the static vulnerability bound for the RF target of one
// (config, binary) pair: the fraction of the (cycle x bit) injection
// space the pruner proves Masked lower-bounds the Masked rate, so its
// complement upper-bounds the AVF.
//
// The headline fields are the bit-granular bound and the Reg fields
// record what register granularity alone proves — the gap is the
// precision bought by known-bits + bit liveness. Because DeadBits
// contains the full mask for every register Dead reports dead, the
// headline bound dominates the register one on every cell by
// construction.
type RFBound struct {
	MaskedLB      float64 // provably-masked fraction of the space
	AVFUpperBound float64 // 1 - MaskedLB
	PrunableBits  uint64  // provably-masked (cycle x bit) points
	SpaceBits     uint64  // total (cycle x bit) points

	RegMaskedLB     float64 // register-granular provably-masked fraction
	RegPrunableBits uint64  // register-granular provably-masked points

	// DueLB lower-bounds the crash-certain (DUE) outcome fraction and
	// SDCUpperBound caps what remains for SDC once both proof classes
	// are subtracted. The provably-masked and provably-DUE point sets
	// are disjoint, so the three fractions partition the space:
	// MaskedLB + DueLB + SDCUpperBound == 1.
	DueLB           float64
	SDCUpperBound   float64
	DuePrunableBits uint64 // provably-DUE (cycle x bit) points
}

// walkIntervals visits the commit trace as a sequence of
// constant-state cycle intervals: the committed state after k events
// is in effect for every injection cycle in (cycle of event k-1, cycle
// of event k], clipped to the golden run's cycle count. f receives
// each non-empty interval's event count k, its program point
// (pointAfter(k)) and its width in cycles. Each event is read once.
func (p *DUEPruner) walkIntervals(f func(k, pt int, cycles uint64)) {
	g, n := p.goldenCycles, p.events.Len()
	c0, pt := uint64(0), 0 // the state after k events: its first injection cycle, its point
	for k := 0; k < n && g > 0; k++ {
		ev := p.events.At(k)
		if hi := min(ev.Cycle, g-1); c0 <= hi {
			f(k, pt, hi-c0+1)
		}
		c0, pt = ev.Cycle+1, p.pointOf(ev.PC)
	}
	if c0 < g {
		f(n, pt, g-c0)
	}
}

// pointBits is what one static program point contributes to a bound for
// every cycle it is in effect. All of it depends on the point alone, so
// a Bound walk works it out the first time the trace reaches the point.
type pointBits struct {
	known bool
	reg   uint64   // bits of wholly dead registers
	bit   uint64   // dead bits
	due   []dueReg // registers holding crash-certain bits that are not dead
}

// dueReg is an architectural register with n due-and-not-dead bits.
type dueReg struct{ a, n uint8 }

// bitsAt is the contribution of an analyzable point. Every
// architectural register is always mapped to exactly one physical
// register, so each dead register contributes XLEN prunable bits
// regardless of which physical slot holds it.
func (p *DUEPruner) bitsAt(pt int) pointBits {
	dead := p.a.Dead(pt, p.numArch)
	pb := pointBits{known: true, reg: uint64(dead.Count()) * uint64(p.xlen)}
	for a := 1; a < p.numArch; a++ {
		deadBits := p.bits.DeadBits(pt, uint8(a))
		pb.bit += uint64(bits.OnesCount64(deadBits))
		if !p.dueOK {
			continue
		}
		if n := bits.OnesCount64(p.bits.DueBits(pt, uint8(a)) &^ deadBits); n > 0 {
			pb.due = append(pb.due, dueReg{uint8(a), uint8(n)})
		}
	}
	return pb
}

// Bound computes the three-way static RF bound by interval-walking the
// commit trace. The per-interval criterion is exactly PrunableKind's —
// dead bits first, then due bits gated by the reorder window of the
// state the interval is in — so each field equals the pruned count of
// an exhaustive campaign. A point's contribution is worked out once; an
// interval then costs two multiplies and the window gate of the due
// registers its point lists.
func (p *DUEPruner) Bound() RFBound {
	b := RFBound{SpaceBits: p.goldenCycles * uint64(p.numPhys) * uint64(p.xlen)}
	if b.SpaceBits == 0 {
		return b
	}
	table := make([]pointBits, len(p.a.Live))
	// Positions before hi have been read once, in order, as the far end
	// of the reorder window [k, k+ROBSize) of a state with due bits moved
	// past them; seen[a] is the last of them that reads register a, so
	// none in the window does when seen[a] < k.
	hi, seen := 0, [32]int32{}
	for a := range seen {
		seen[a] = -1
	}
	var reg, bit, due uint64
	p.walkIntervals(func(k, pt int, cycles uint64) {
		if pt < 0 {
			return // an unanalyzable state proves nothing
		}
		pb := &table[pt]
		if !pb.known {
			*pb = p.bitsAt(pt)
		}
		reg += pb.reg * cycles
		bit += pb.bit * cycles
		if len(pb.due) == 0 {
			return
		}
		for end := min(k+p.robSize, p.events.Len()); hi < end; hi++ {
			for m := p.readsOf(p.events.At(hi).PC); m != 0; m &= m - 1 {
				seen[bits.TrailingZeros32(m)] = int32(hi)
			}
		}
		for _, d := range pb.due {
			if int(seen[d.a]) < k && p.readPast(k, d.a) {
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
