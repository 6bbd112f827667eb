package machine

import (
	"sevsim/internal/cpu"
	"sevsim/internal/mem"
)

// Snap is a full-machine checkpoint: every piece of authoritative state
// in the core, both cache levels, and backing memory, plus the cycle it
// was taken at and a precomputed convergence hash. Snaps are immutable
// once taken — Restore never writes through one, and the cache chunks
// and memory pages it shares with other Snaps of the same run are
// copy-on-write — so a single Snap is shared read-only across all
// injection workers of a cell.
type Snap struct {
	Cycle uint64
	Core  *cpu.CoreState
	CacheImages
	Mem *mem.MemoryState

	// Hash is StateHash() of the machine at snapshot time, the cheap
	// prefilter of Converged: a live machine whose hash differs cannot
	// be state-equal, so the exact comparison is skipped.
	Hash uint64
}

// CacheImages is the state of the three caches at one moment of a run:
// the cache part of a Snap, and all that is kept of the golden machine
// at its halt (checkpoint.Stream.Halt), where nothing will ever be
// restored or compared but the LRU stamps still say which sets the run
// had finished with.
type CacheImages struct {
	L1I *mem.CacheState
	L1D *mem.CacheState
	L2  *mem.CacheState
}

// SnapshotCaches captures the three caches, copy-on-write like Snapshot.
func (m *Machine) SnapshotCaches() CacheImages {
	return CacheImages{L1I: m.L1I.Snapshot(), L1D: m.L1D.Snapshot(), L2: m.L2.Snapshot()}
}

// Snapshot captures the complete machine state. The core is deep-copied;
// caches and memory are copy-on-write (line chunks and pages), so the
// cost is what the machine touched since its previous snapshot or
// restore plus the chunk and page tables.
func (m *Machine) Snapshot() *Snap {
	return &Snap{
		Cycle:       m.Core.Cycle(),
		Core:        m.Core.Snapshot(),
		CacheImages: m.SnapshotCaches(),
		Mem:         m.Mem.Snapshot(),
		Hash:        m.StateHash(),
	}
}

// Release returns the snapshot's pooled core state to its pool and
// drops the rest. The caller must be the snapshot's last holder: no
// Restore, Converged, or Equal may use it afterwards, and Release must
// not be called twice. Cache and memory state are not pooled: other
// snapshots may share their chunks and pages, which the garbage
// collector frees with their last holder.
func (s *Snap) Release() {
	s.Core.Release()
	s.Core, s.CacheImages, s.Mem = nil, CacheImages{}, nil
}

// Restore rewinds the machine to the snapshot, reusing the machine's
// existing backing arrays so a scratch machine can be recycled across
// thousands of injections without reallocating. The machine must have
// been built with the same Config and Program as the snapshot's source.
func (m *Machine) Restore(s *Snap) {
	m.Core.Restore(s.Core)
	m.L1I.Restore(s.L1I)
	m.L1D.Restore(s.L1D)
	m.L2.Restore(s.L2)
	m.Mem.Restore(s.Mem)
}

// StateHash folds the core's behavioral-state hash with the three cache
// LRU clocks. Every component hashed here is part of the Converged
// equality relation (never of its exclusions), so hash inequality
// soundly proves state inequality; the clocks advance on every cache
// access, making them a strong cheap discriminator for executions that
// touched the hierarchy differently.
func (m *Machine) StateHash() uint64 {
	const prime = 1099511628211
	h := m.Core.StateHash()
	h = (h ^ m.L1I.Clock()) * prime
	h = (h ^ m.L1D.Clock()) * prime
	h = (h ^ m.L2.Clock()) * prime
	return h
}

// Converged reports whether the machine's behavioral state equals the
// snapshot's: same cycle, and state equality over every component that
// can influence future execution (dead state — free registers,
// unoccupied queue slots, invalid cache lines' payloads — excluded; see
// cpu.Core.StateEquals and mem docs). Because simulation is a
// deterministic function of exactly that state, Converged true means
// the remainder of this run replays the snapshot's run bit-for-bit.
func (m *Machine) Converged(s *Snap) bool {
	if m.Core.Cycle() != s.Cycle || m.StateHash() != s.Hash {
		return false
	}
	return m.Core.StateEquals(s.Core) &&
		m.L1I.StateEquals(s.L1I) &&
		m.L1D.StateEquals(s.L1D) &&
		m.L2.StateEquals(s.L2) &&
		m.Mem.StateEquals(s.Mem)
}

// Equal is the strict bit-for-bit comparison of two snapshots (dead
// state included), used by round-trip tests.
func (s *Snap) Equal(o *Snap) bool {
	return s.Cycle == o.Cycle && s.Hash == o.Hash &&
		s.Core.Equal(o.Core) &&
		s.CacheImages.Equal(o.CacheImages) &&
		s.Mem.Equal(o.Mem)
}

// Equal is the strict comparison of two sets of cache images.
func (c CacheImages) Equal(o CacheImages) bool {
	return c.L1I.Equal(o.L1I) && c.L1D.Equal(o.L1D) && c.L2.Equal(o.L2)
}
