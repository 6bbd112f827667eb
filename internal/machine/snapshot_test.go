package machine

import (
	"bytes"
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/cpu"
	"sevsim/internal/isa"
	"sevsim/internal/mem"
)

// snapIns is the snapshot-test workload: store and load loops plus a
// multiply and data-dependent branches, so the caches, backing memory,
// predictor, and out-of-order structures all carry live state at any
// mid-run snapshot point.
func snapIns() []isa.Instr {
	const a0, a1, a2, a3, t0 = isa.RegA0, isa.RegA1, isa.RegA2, isa.RegA3, isa.RegT0
	return []isa.Instr{
		/*0*/ isa.I(isa.OpLui, a0, 0, int32(GlobalBase>>16)), // base
		/*1*/ isa.I(isa.OpAddi, a1, isa.RegZero, 0), // i
		/*2*/ isa.I(isa.OpAddi, a2, isa.RegZero, 10),
		// store loop: mem[base+i*4] = i*i
		/*3*/ isa.R(isa.OpMul, a3, a1, a1),
		/*4*/ isa.I(isa.OpSlli, t0, a1, 2),
		/*5*/ isa.R(isa.OpAdd, t0, a0, t0),
		/*6*/ isa.Store(isa.OpSw, a3, t0, 0),
		/*7*/ isa.I(isa.OpAddi, a1, a1, 1),
		/*8*/ isa.Branch(isa.OpBlt, a1, a2, off(8, 3)),
		// sum loop
		/*9*/ isa.I(isa.OpAddi, a1, isa.RegZero, 0),
		/*10*/ isa.I(isa.OpAddi, a3, isa.RegZero, 0), // sum
		/*11*/ isa.I(isa.OpSlli, t0, a1, 2),
		/*12*/ isa.R(isa.OpAdd, t0, a0, t0),
		/*13*/ isa.Load(isa.OpLw, t0, t0, 0),
		/*14*/ isa.R(isa.OpAdd, a3, a3, t0),
		/*15*/ isa.I(isa.OpAddi, a1, a1, 1),
		/*16*/ isa.Branch(isa.OpBlt, a1, a2, off(16, 11)),
		/*17*/ isa.Out(a3), // 285
		/*18*/ isa.Halt(),
	}
}

// runTo advances a fresh machine to the start of cycle c using a watch
// that fires unconditionally there.
func runTo(t *testing.T, m *Machine, c uint64) {
	t.Helper()
	_, stopped := m.RunWatched(c+1, []Watch{{At: c, Fn: func(*Machine) bool { return true }}})
	if !stopped {
		t.Fatalf("machine ended before cycle %d", c)
	}
	if got := m.Core.Cycle(); got != c {
		t.Fatalf("runTo stopped at cycle %d, want %d", got, c)
	}
}

// goldenRun returns the fault-free reference result for the snapshot
// workload under cfg.
func goldenRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res := New(cfg, prog(snapIns())).Run(2_000_000)
	if res.Outcome != OutcomeOK {
		t.Fatalf("%s: golden run %v %s", cfg.Name, res.Outcome, res.Reason)
	}
	return res
}

// snapCycles picks representative snapshot points across a run: the
// very first cycle, interior points, and the last cycle before halt.
func snapCycles(golden uint64) []uint64 {
	return []uint64{0, golden / 4, golden / 2, 3 * golden / 4, golden - 1}
}

func sameResult(a, b Result) bool {
	if a.Outcome != b.Outcome || a.Cycles != b.Cycles || len(a.Output) != len(b.Output) {
		return false
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return false
		}
	}
	return true
}

// TestSnapshotRestoreRoundTrip is the core property of the checkpoint
// layer: restoring a snapshot into the machine it was taken from — even
// after that machine has run arbitrarily far past it — reproduces the
// snapshot bit for bit, and the continuation replays the golden run
// exactly.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, cfg := range Configs() {
		golden := goldenRun(t, cfg)
		for _, c := range snapCycles(golden.Cycles) {
			m := New(cfg, prog(snapIns()))
			runTo(t, m, c)
			s1 := m.Snapshot()
			if !m.Converged(s1) {
				t.Fatalf("%s@%d: machine not Converged with its own snapshot", cfg.Name, c)
			}

			// Dirty every structure by running to completion, then rewind.
			m.Run(2_000_000)
			m.Restore(s1)
			s2 := m.Snapshot()
			if !s1.Equal(s2) {
				t.Errorf("%s@%d: re-snapshot after restore not strictly equal", cfg.Name, c)
			}

			// The restored machine must finish exactly like the golden run.
			res := m.Run(2_000_000)
			if !sameResult(res, golden) {
				t.Errorf("%s@%d: continuation %v after %d cycles %v, golden %v after %d cycles %v",
					cfg.Name, c, res.Outcome, res.Cycles, res.Output,
					golden.Outcome, golden.Cycles, golden.Output)
			}
		}
	}
}

// TestRestoreIntoFreshMachine checks the fast-forward use case: a
// snapshot taken on one machine restores into a newly built machine
// (same config and program) and that machine continues identically.
func TestRestoreIntoFreshMachine(t *testing.T) {
	for _, cfg := range Configs() {
		golden := goldenRun(t, cfg)
		for _, c := range snapCycles(golden.Cycles) {
			src := New(cfg, prog(snapIns()))
			runTo(t, src, c)
			s := src.Snapshot()

			fresh := New(cfg, prog(snapIns()))
			fresh.Restore(s)
			if !fresh.Snapshot().Equal(s) {
				t.Errorf("%s@%d: fresh machine's re-snapshot not equal to source snapshot", cfg.Name, c)
			}
			res := fresh.Run(2_000_000)
			if !sameResult(res, golden) {
				t.Errorf("%s@%d: fresh-machine continuation diverged: %v after %d cycles",
					cfg.Name, c, res.Outcome, res.Cycles)
			}

			// The snapshot survives its consumer: the pages it shares with
			// the continued run are copy-on-write, so a second restore must
			// still replay golden.
			again := New(cfg, prog(snapIns()))
			again.Restore(s)
			if res := again.Run(2_000_000); !sameResult(res, golden) {
				t.Errorf("%s@%d: second restore from the same snapshot diverged", cfg.Name, c)
			}
		}
	}
}

// TestReleaseLeavesSharingSnapshotsIntact: snapshots taken one after
// another on one machine share the cache chunks and memory pages the run
// did not touch in between, so releasing some of them must leave the
// others exactly as they were — same serialized bytes, and a restore
// that still replays the golden run.
func TestReleaseLeavesSharingSnapshotsIntact(t *testing.T) {
	for _, cfg := range Configs() {
		golden := goldenRun(t, cfg)
		m := New(cfg, prog(snapIns()))
		var snaps []*Snap
		for _, c := range snapCycles(golden.Cycles) {
			if c > 0 {
				runTo(t, m, c)
			}
			snaps = append(snaps, m.Snapshot())
		}
		encode := func(s *Snap) []byte {
			var w binio.Writer
			s.EncodeTo(&w, &mem.Encoder{})
			return w.Bytes()
		}
		keep := snaps[2]
		before := encode(keep)
		for i, s := range snaps {
			if i != 2 {
				s.Release()
			}
		}
		m.Run(2_000_000) // the machine they were taken on moves on, too
		if !bytes.Equal(encode(keep), before) {
			t.Errorf("%s: releasing its neighbours changed a snapshot", cfg.Name)
		}
		fresh := New(cfg, prog(snapIns()))
		fresh.Restore(keep)
		if res := fresh.Run(2_000_000); !sameResult(res, golden) {
			t.Errorf("%s: restore after releasing the neighbours diverged: %v after %d cycles", cfg.Name, res.Outcome, res.Cycles)
		}
	}
}

// TestConvergedDetectsDivergence: Converged must reject a different
// cycle and any behavioral state difference, e.g. a mutated live
// register value.
func TestConvergedDetectsDivergence(t *testing.T) {
	cfg := Configs()[0]
	golden := goldenRun(t, cfg)
	c := golden.Cycles / 2

	m := New(cfg, prog(snapIns()))
	runTo(t, m, c)
	s := m.Snapshot()

	// Same machine one step later: different cycle.
	m.Core.Step()
	if m.Converged(s) {
		t.Error("Converged true across different cycles")
	}

	// Same cycle, one architectural register changed.
	m2 := New(cfg, prog(snapIns()))
	m2.Restore(s)
	m2.Core.SetReg(isa.RegA3, 0xdeadbeef)
	if m2.Converged(s) {
		t.Error("Converged true despite a mutated register value")
	}
}

// FuzzSnapshotRoundTrip fuzzes the snapshot cycle: at an arbitrary
// point of the run, Snapshot → dirty → Restore must round-trip the full
// machine state bit for bit on both microarchitectures.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(17))
	f.Add(uint64(1 << 40))
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, cfg := range Configs() {
			golden := goldenRun(t, cfg)
			c := seed % golden.Cycles
			m := New(cfg, prog(snapIns()))
			runTo(t, m, c)
			s1 := m.Snapshot()
			m.Run(2_000_000)
			m.Restore(s1)
			if !m.Snapshot().Equal(s1) {
				t.Errorf("%s@%d: snapshot round trip not bit-exact", cfg.Name, c)
			}
			if res := m.Run(2_000_000); !sameResult(res, golden) {
				t.Errorf("%s@%d: restored continuation diverged from golden", cfg.Name, c)
			}
		}
	})
}

// convergedIsStateEquals fails unless m.Converged(s) answers exactly the
// conjunction of the five components' StateEquals: the cycle and cache
// clock reject in front of it may only skip comparisons that would have
// answered false.
func convergedIsStateEquals(t *testing.T, m *Machine, s *Snap) {
	t.Helper()
	want := m.Core.StateEquals(s.Core) &&
		m.L1I.StateEquals(s.L1I) &&
		m.L1D.StateEquals(s.L1D) &&
		m.L2.StateEquals(s.L2) &&
		m.Mem.StateEquals(s.Mem)
	if got := m.Converged(s); got != want {
		t.Fatalf("cycle %d: Converged %v, the StateEquals conjunction %v", m.Core.Cycle(), got, want)
	}
}

// FuzzStateEqualsRestore fuzzes the relations the convergence fast exit
// rests on, over mid-run machines perturbed by random bit flips in the
// core and the data cache and by counter bumps. Converged must equal the
// StateEquals conjunction on the perturbed machine, at the flip and
// after both it and an unperturbed twin ran on; CoreState.Equal must be
// reflexive and symmetric; and Restore must round-trip the clean and the
// perturbed core state alike.
func FuzzStateEqualsRestore(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0))
	f.Add(uint64(3), uint64(12345), uint8(1))
	f.Add(uint64(40), uint64(0xfeedface), uint8(7))
	f.Add(uint64(1<<40), uint64(1), uint8(255))
	f.Fuzz(func(t *testing.T, at, flipSeed uint64, nflips uint8) {
		for _, cfg := range Configs() {
			golden := goldenRun(t, cfg)
			c := at % golden.Cycles
			m := New(cfg, prog(snapIns()))
			runTo(t, m, c)
			ms := m.Snapshot()
			s1 := m.Core.Snapshot()
			if !m.Core.StateEquals(s1) {
				t.Fatal("core not state-equal to its own snapshot")
			}
			if !s1.Equal(s1) {
				t.Fatal("CoreState.Equal not reflexive")
			}

			// Perturb in place: up to 7 changes at LCG-derived positions
			// across the core's injectable fields, the L1D's data and tag
			// arrays and the event counters. They may land on dead state
			// (free registers, unoccupied slots, invalid lines, counters)
			// or live state — both sides of the StateEquals exclusions get
			// exercised.
			x := flipSeed
			next := func() uint64 {
				x = x*6364136223846793005 + 1442695040888963407
				return x >> 17
			}
			for i := 0; i < int(nflips%8); i++ {
				switch fld := next() % uint64(cpu.NumFields+4); fld {
				case uint64(cpu.NumFields):
					m.L1D.FlipDataBit(next() % m.L1D.DataBitCount())
				case uint64(cpu.NumFields) + 1:
					m.L1D.FlipTagBit(next() % m.L1D.TagBitCount())
				case uint64(cpu.NumFields) + 2:
					m.Core.Stats.Committed++
				case uint64(cpu.NumFields) + 3:
					m.L1D.Stats.Hits++
				default:
					m.Core.FlipBit(cpu.Field(fld), next()%m.Core.FieldBits(cpu.Field(fld)))
				}
			}
			convergedIsStateEquals(t, m, ms)
			s2 := m.Core.Snapshot()

			// Strict equality must be symmetric and reflexive.
			if s1.Equal(s2) != s2.Equal(s1) {
				t.Fatal("CoreState.Equal not symmetric")
			}
			if !s2.Equal(s2) {
				t.Fatal("CoreState.Equal not reflexive on a perturbed state")
			}

			// Run the perturbed machine and an unperturbed twin on to the
			// same cycle, where the clocks and the cycle may disagree (the
			// perturbed run may also have ended before it).
			later := []Watch{{At: c + 1 + next()%64, Fn: func(*Machine) bool { return true }}}
			twin := New(cfg, prog(snapIns()))
			twin.Restore(ms)
			twin.RunWatched(later[0].At+1, later)
			ts := twin.Snapshot()
			m.RunWatched(later[0].At+1, later)
			convergedIsStateEquals(t, m, ts)
			ts.Release()

			// Restore is bit-exact, for the clean state and the perturbed
			// one alike.
			m.Core.Restore(s1)
			if !m.Core.StateEquals(s1) {
				t.Fatal("core not state-equal to the snapshot it was just restored from")
			}
			s3 := m.Core.Snapshot()
			if !s3.Equal(s1) {
				t.Fatal("restore round trip not bit-exact")
			}
			s3.Release()
			m.Core.Restore(s2)
			if !m.Core.StateEquals(s2) {
				t.Fatal("core not state-equal to the perturbed snapshot it was just restored from")
			}
			s4 := m.Core.Snapshot()
			if !s4.Equal(s2) {
				t.Fatal("restore round trip of a perturbed state not bit-exact")
			}
			s4.Release()
			s1.Release()
			s2.Release()
			ms.Release()
		}
	})
}
