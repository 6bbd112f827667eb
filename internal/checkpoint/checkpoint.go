// Package checkpoint records and serves full-machine snapshots of a
// golden (fault-free) run, the mechanism behind the injection engine's
// two biggest wall-clock levers:
//
//   - fast-forward: an injection at cycle c restores the latest
//     checkpoint at-or-before c instead of re-simulating the fault-free
//     prefix from cycle 0 — with injection cycles uniform over the
//     golden run, K evenly spaced checkpoints remove ~(1 − 1/2K) of all
//     pre-injection simulation, and the ladder RecordOnline takes
//     during the golden run itself stays within an eighth of that;
//
//   - early convergence: checkpoints after the injection cycle double
//     as reference points for the Masked fast exit — if the faulty
//     machine's behavioral state equals the golden state at the same
//     cycle, the rest of the run provably replays golden and the
//     injection is Masked without simulating the tail.
//
// A Stream is immutable once recorded and safe to share read-only across
// every worker of a campaign cell: machine.Restore copies out of a
// snapshot, never into it. Its snapshots are copy-on-write — each
// shares with its predecessor every cache line chunk and memory page
// the run did not touch in between — so a rung costs what changed, and
// the budget can be dense (ResidentBytes reports what a stream holds).
//
// Beside the rungs a stream keeps the three cache images of the golden
// machine at its halt (Halt). Nothing is ever restored from them or
// compared against them: their LRU stamps say which cache sets the run
// never looked up again after a given rung, which lets the injector
// answer a flip into such a set without simulating it (DESIGN.md §10).
package checkpoint

import (
	"sort"

	"sevsim/internal/machine"
	"sevsim/internal/mem"
)

// Stream is the ordered checkpoint sequence of one golden run.
type Stream struct {
	snaps   []*machine.Snap
	watches []machine.Watch // convergence probe per snapshot, same order

	// halt is the caches as the run left them, copy-on-write against the
	// last snapshot taken; nil exactly when the stream holds no rung.
	halt *machine.CacheImages
}

// Cycles returns up to k evenly spaced checkpoint cycles for a golden
// run of the given length: 0, step, 2·step, … with step = goldenCycles/k,
// all strictly below goldenCycles (a hook at the halt cycle would never
// fire — the run ends there). Cycle 0 is always included so every
// injection has a checkpoint at-or-before it. Returns nil when k ≤ 0 or
// the golden run is empty.
func Cycles(goldenCycles uint64, k int) []uint64 {
	if k <= 0 || goldenCycles == 0 {
		return nil
	}
	if uint64(k) > goldenCycles {
		k = int(goldenCycles)
	}
	step := goldenCycles / uint64(k)
	out := make([]uint64, k)
	for i := range out {
		out[i] = uint64(i) * step
	}
	return out
}

// Record replays a golden run on m (a freshly built machine), taking a
// snapshot at the start of each listed cycle, and returns the stream
// plus the run's result. cycles must be ascending and below the halt
// cycle, so the run length has to be known in advance: Record is the
// two-pass reference that RecordOnline's tests compare against, and the
// way to put rungs at chosen cycles.
func Record(m *machine.Machine, maxCycles uint64, cycles []uint64) (*Stream, machine.Result) {
	s := &Stream{
		snaps:   make([]*machine.Snap, 0, len(cycles)),
		watches: make([]machine.Watch, 0, len(cycles)),
	}
	hooks := make([]machine.Hook, len(cycles))
	for i, c := range cycles {
		hooks[i] = machine.Hook{At: c, Fn: func(mm *machine.Machine) { s.add(mm.Snapshot()) }}
	}
	res := m.Run(maxCycles, hooks...)
	s.recordHalt(m)
	return s, res
}

// firstInterval is the rung spacing RecordOnline starts from. It only
// has to be short enough that a run of a few thousand cycles still gets
// a ladder; every doubling costs k cheap copy-on-write snapshots.
const firstInterval = 256

// RecordOnline runs m (a freshly built machine) to the end once and
// records the ladder in that same pass, without knowing the run length:
// it takes a rung every d cycles, starting at cycle 0 with d =
// firstInterval, and whenever 2k rungs are held it releases every other
// one and doubles d. At the end it keeps, for each cycle of
// Cycles(res.Cycles, k), the latest rung at or before it and releases
// the rest.
//
// The held rungs are always the multiples of d below the current cycle,
// and d is decided by how far the run got, so the kept cycles are a
// function of (res.Cycles, k) alone: at most k of them, cycle 0 among
// them, all below res.Cycles, and none more than one final d (between
// half and one even step) before the even rung it stands in for. A
// snapshot does not disturb the machine, so the result is the one a
// plain m.Run(maxCycles) returns, and each kept snapshot is the one
// Record would take at that cycle.
func RecordOnline(m *machine.Machine, maxCycles uint64, k int) (*Stream, machine.Result) {
	s := &Stream{}
	if k <= 0 {
		return s, m.Run(maxCycles)
	}
	held := make([]*machine.Snap, 0, 2*k)
	d := uint64(firstInterval)
	var res machine.Result
	for next := uint64(0); ; next = (res.Cycles/d + 1) * d {
		// Running up to a cycle budget of next leaves the machine at the
		// start of cycle next, exactly where a hook at next would fire.
		res = m.Run(min(next, maxCycles))
		if res.Outcome != machine.OutcomeTimeout || res.Cycles >= maxCycles {
			break
		}
		held = append(held, m.Snapshot())
		if len(held) == 2*k {
			for i, sn := range held {
				if i%2 == 0 {
					held[i/2] = sn
				} else {
					sn.Release()
				}
			}
			held = held[:k]
			d *= 2
		}
	}
	keep := make([]bool, len(held))
	i := 0
	for _, c := range Cycles(res.Cycles, k) {
		for i+1 < len(held) && held[i+1].Cycle <= c {
			i++
		}
		keep[i] = true
	}
	for i, sn := range held {
		if keep[i] {
			s.add(sn)
		} else {
			sn.Release()
		}
	}
	s.recordHalt(m)
	return s, res
}

// add appends a snapshot and its convergence watch.
func (s *Stream) add(sn *machine.Snap) {
	s.snaps = append(s.snaps, sn)
	s.watches = append(s.watches, machine.Watch{
		At: sn.Cycle,
		Fn: func(live *machine.Machine) bool { return live.Converged(sn) },
	})
}

// recordHalt takes the halt image from the machine a recording run just
// ended on. A stream without rungs serves no injection and keeps none.
func (s *Stream) recordHalt(m *machine.Machine) {
	if len(s.snaps) > 0 {
		halt := m.SnapshotCaches()
		s.halt = &halt
	}
}

// Halt returns the cache images of the golden machine at the end of its
// run, or nil when the stream holds no checkpoint. Shared and read-only,
// like the snapshots.
func (s *Stream) Halt() *machine.CacheImages { return s.halt }

// Len returns the number of recorded checkpoints.
func (s *Stream) Len() int { return len(s.snaps) }

// Snaps returns the checkpoints in ascending cycle order. The slice and
// the snapshots are shared — treat both as read-only.
func (s *Stream) Snaps() []*machine.Snap { return s.snaps }

// LatestIndex returns the index of the latest checkpoint at-or-before
// cycle, or -1 when none exists (only possible if cycle 0 was not
// recorded). Callers batching injections per checkpoint key on this
// index so every run of a batch restores the same snapshot.
func (s *Stream) LatestIndex(cycle uint64) int {
	return sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].Cycle > cycle }) - 1
}

// Latest returns the latest checkpoint at-or-before cycle, or nil when
// none exists (only possible if cycle 0 was not recorded).
func (s *Stream) Latest(cycle uint64) *machine.Snap {
	if i := s.LatestIndex(cycle); i >= 0 {
		return s.snaps[i]
	}
	return nil
}

// Release returns every snapshot's pooled core state to its pool and
// empties the stream, halt image included; the shared cache chunks and
// memory pages go to the garbage collector. The caller must be the
// stream's last user: no restore, watch, or Latest call may follow.
func (s *Stream) Release() {
	for _, sn := range s.snaps {
		sn.Release()
	}
	s.snaps = nil
	s.watches = nil
	s.halt = nil
}

// ResidentBytes returns the memory the stream's snapshots and halt image
// hold, counting a cache chunk or memory page shared by several of them
// once.
func (s *Stream) ResidentBytes() int {
	var f mem.Footprint
	addCaches := func(c *machine.CacheImages) {
		f.AddCache(c.L1I)
		f.AddCache(c.L1D)
		f.AddCache(c.L2)
	}
	n := 0
	for _, sn := range s.snaps {
		n += sn.Core.Bytes()
		addCaches(&sn.CacheImages)
		f.AddMemory(sn.Mem)
	}
	if s.halt != nil {
		addCaches(s.halt)
	}
	return n + f.Bytes()
}

// WatchesAfter returns the convergence watches for every checkpoint
// strictly after cycle, ready to pass to machine.RunWatched. A watch at
// the injection cycle itself would be sound (hooks fire before watches,
// so it would observe post-flip state) but the strict bound keeps an
// injection from being classified by the very checkpoint it restored
// from. The returned slice aliases the stream — zero allocation per
// injection — and must not be modified.
func (s *Stream) WatchesAfter(cycle uint64) []machine.Watch {
	i := sort.Search(len(s.watches), func(i int) bool { return s.watches[i].At > cycle })
	return s.watches[i:]
}
