package machine

import (
	"sevsim/internal/cpu"
	"sevsim/internal/mem"
)

// Snap is a full-machine checkpoint: every piece of authoritative state
// in the core, both cache levels, and backing memory, plus the cycle it
// was taken at. Snaps are immutable once taken — Restore never writes
// through one, and the cache chunks and memory pages it shares with
// other Snaps of the same run are copy-on-write — so a single Snap is
// shared read-only across all injection workers of a cell.
type Snap struct {
	Cycle uint64
	Core  *cpu.CoreState
	CacheImages
	Mem *mem.MemoryState
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

// Converged reports whether the machine's behavioral state equals the
// snapshot's: same cycle, and state equality over every component that
// can influence future execution (dead state — free registers,
// unoccupied queue slots, invalid cache lines' payloads — excluded; see
// cpu.Core.StateEquals and mem docs). Because simulation is a
// deterministic function of exactly that state, Converged true means
// the remainder of this run replays the snapshot's run bit-for-bit.
//
// The cycle and the three caches' LRU clocks are compared first: each
// is part of the relation, and the clocks advance on every cache access,
// so most divergent runs are rejected before any structure is walked.
func (m *Machine) Converged(s *Snap) bool {
	if m.Core.Cycle() != s.Cycle || m.L1I.Clock() != s.L1I.Clock ||
		m.L1D.Clock() != s.L1D.Clock || m.L2.Clock() != s.L2.Clock {
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
	return s.Cycle == o.Cycle &&
		s.Core.Equal(o.Core) &&
		s.CacheImages.Equal(o.CacheImages) &&
		s.Mem.Equal(o.Mem)
}

// Equal is the strict comparison of two sets of cache images.
func (c CacheImages) Equal(o CacheImages) bool {
	return c.L1I.Equal(o.L1I) && c.L1D.Equal(o.L1D) && c.L2.Equal(o.L2)
}
