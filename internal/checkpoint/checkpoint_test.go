package checkpoint

import (
	"sync"
	"testing"

	"sevsim/internal/isa"
	"sevsim/internal/machine"
	"sevsim/internal/mem"
)

// testProgram is a small loop workload (sum 1..100 plus a store/load
// pair) long enough to place several checkpoints apart.
func testProgram() *machine.Program { return loopProgram(100) }

// loopProgram sums 1..n through a store/load pair; a few cycles per
// iteration, for tests that need a run of a chosen length.
func loopProgram(n int32) *machine.Program {
	const a0, a1, a2 = isa.RegA0, isa.RegA1, isa.RegA2
	ins := []isa.Instr{
		/*0*/ isa.I(isa.OpLui, a2, 0, int32(machine.GlobalBase>>16)),
		/*1*/ isa.I(isa.OpAddi, a0, isa.RegZero, 0), // sum
		/*2*/ isa.I(isa.OpAddi, a1, isa.RegZero, 1), // i
		// loop:
		/*3*/ isa.R(isa.OpAdd, a0, a0, a1),
		/*4*/ isa.Store(isa.OpSw, a0, a2, 0),
		/*5*/ isa.I(isa.OpAddi, a1, a1, 1),
		/*6*/ isa.I(isa.OpAddi, isa.RegT0, a1, -n-1),
		/*7*/ isa.Branch(isa.OpBne, isa.RegT0, isa.RegZero, int32(3-7-1)),
		/*8*/ isa.Load(isa.OpLw, a0, a2, 0),
		/*9*/ isa.Out(a0), // 5050 for n = 100
		/*10*/ isa.Halt(),
	}
	return &machine.Program{Name: "ckpt", Code: isa.Assemble(ins), Entry: machine.CodeBase, GlobalSize: 4096}
}

func TestCyclesProperties(t *testing.T) {
	cases := []struct {
		golden uint64
		k      int
		want   []uint64
	}{
		{0, 8, nil},
		{100, 0, nil},
		{100, -3, nil},
		{100, 4, []uint64{0, 25, 50, 75}},
		{7, 3, []uint64{0, 2, 4}},
		{1, 5, []uint64{0}},
		{3, 8, []uint64{0, 1, 2}}, // k capped at the golden length
	}
	for _, c := range cases {
		got := Cycles(c.golden, c.k)
		if len(got) != len(c.want) {
			t.Errorf("Cycles(%d, %d) = %v, want %v", c.golden, c.k, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Cycles(%d, %d) = %v, want %v", c.golden, c.k, got, c.want)
				break
			}
		}
	}
	// General invariants on a larger sweep: starts at 0, strictly
	// ascending, strictly below the golden length, at most k entries.
	for golden := uint64(1); golden < 200; golden += 13 {
		for k := 1; k <= 16; k++ {
			cs := Cycles(golden, k)
			if len(cs) == 0 || cs[0] != 0 {
				t.Fatalf("Cycles(%d, %d): first entry not 0: %v", golden, k, cs)
			}
			if len(cs) > k {
				t.Fatalf("Cycles(%d, %d): %d entries", golden, k, len(cs))
			}
			for i, c := range cs {
				if c >= golden {
					t.Fatalf("Cycles(%d, %d): entry %d at or past halt", golden, k, c)
				}
				if i > 0 && c <= cs[i-1] {
					t.Fatalf("Cycles(%d, %d): not strictly ascending: %v", golden, k, cs)
				}
			}
		}
	}
}

func mustGolden(t *testing.T, cfg machine.Config) machine.Result {
	t.Helper()
	res := machine.New(cfg, testProgram()).Run(1 << 30)
	if res.Outcome != machine.OutcomeOK {
		t.Fatalf("golden run %v %s", res.Outcome, res.Reason)
	}
	return res
}

func TestRecordLatestAndWatches(t *testing.T) {
	cfg := machine.Configs()[0]
	golden := mustGolden(t, cfg)
	cycles := Cycles(golden.Cycles, 4)

	stream, rec := Record(machine.New(cfg, testProgram()), 1<<30, cycles)
	if rec.Outcome != golden.Outcome || rec.Cycles != golden.Cycles {
		t.Fatalf("recording pass %v after %d cycles, golden %v after %d",
			rec.Outcome, rec.Cycles, golden.Outcome, golden.Cycles)
	}
	if stream.Len() != len(cycles) {
		t.Fatalf("recorded %d checkpoints, want %d", stream.Len(), len(cycles))
	}
	snaps := stream.Snaps()
	for i, sn := range snaps {
		if sn.Cycle != cycles[i] {
			t.Errorf("checkpoint %d at cycle %d, want %d", i, sn.Cycle, cycles[i])
		}
	}

	// Latest: exact hits, in-between cycles, and past-the-end cycles.
	if got := stream.Latest(0); got != snaps[0] {
		t.Error("Latest(0) is not the first checkpoint")
	}
	if got := stream.Latest(cycles[1]); got != snaps[1] {
		t.Error("Latest at an exact checkpoint cycle must return that checkpoint")
	}
	if got := stream.Latest(cycles[1] - 1); got != snaps[0] {
		t.Error("Latest just before a checkpoint must return the previous one")
	}
	if got := stream.Latest(golden.Cycles + 1000); got != snaps[len(snaps)-1] {
		t.Error("Latest past the end must return the last checkpoint")
	}
	empty := &Stream{}
	if empty.Latest(5) != nil {
		t.Error("Latest on an empty stream must be nil")
	}

	// WatchesAfter is strictly-after: the checkpoint an injection
	// restored from must never classify it.
	if got := stream.WatchesAfter(0); len(got) != len(cycles)-1 {
		t.Errorf("WatchesAfter(0) has %d watches, want %d", len(got), len(cycles)-1)
	}
	if got := stream.WatchesAfter(cycles[1]); len(got) != len(cycles)-2 {
		t.Errorf("WatchesAfter(%d) has %d watches, want %d", cycles[1], len(got), len(cycles)-2)
	}
	if got := stream.WatchesAfter(golden.Cycles); len(got) != 0 {
		t.Errorf("WatchesAfter past the last checkpoint has %d watches", len(got))
	}
}

// TestRestoreFromEachCheckpointReplaysGolden is the fast-forward
// guarantee: starting a fresh machine from any recorded checkpoint
// finishes with exactly the golden outcome, cycle count, and output.
func TestRestoreFromEachCheckpointReplaysGolden(t *testing.T) {
	for _, cfg := range machine.Configs() {
		golden := mustGolden(t, cfg)
		stream, _ := Record(machine.New(cfg, testProgram()), 1<<30, Cycles(golden.Cycles, 5))
		for i, sn := range stream.Snaps() {
			m := machine.New(cfg, testProgram())
			m.Restore(sn)
			res := m.Run(1 << 30)
			if res.Outcome != golden.Outcome || res.Cycles != golden.Cycles {
				t.Errorf("%s checkpoint %d (cycle %d): %v after %d cycles, golden %v after %d",
					cfg.Name, i, sn.Cycle, res.Outcome, res.Cycles, golden.Outcome, golden.Cycles)
			}
			if len(res.Output) != len(golden.Output) {
				t.Errorf("%s checkpoint %d: output %v, golden %v", cfg.Name, i, res.Output, golden.Output)
				continue
			}
			for j := range res.Output {
				if res.Output[j] != golden.Output[j] {
					t.Errorf("%s checkpoint %d: output %v, golden %v", cfg.Name, i, res.Output, golden.Output)
					break
				}
			}
		}
	}
}

// TestWatchesDetectGoldenReplay: an undisturbed replay from a
// checkpoint converges at the very next watch — the positive case of
// the early-exit machinery (faults that mask later are a superset).
func TestWatchesDetectGoldenReplay(t *testing.T) {
	cfg := machine.Configs()[0]
	golden := mustGolden(t, cfg)
	stream, _ := Record(machine.New(cfg, testProgram()), 1<<30, Cycles(golden.Cycles, 4))
	snaps := stream.Snaps()

	m := machine.New(cfg, testProgram())
	m.Restore(snaps[0])
	res, stopped := m.RunWatched(1<<30, stream.WatchesAfter(snaps[0].Cycle))
	if !stopped {
		t.Fatal("golden replay never matched a later checkpoint")
	}
	if res.Cycles != snaps[1].Cycle {
		t.Errorf("converged at cycle %d, want the next checkpoint at %d", res.Cycles, snaps[1].Cycle)
	}
}

// TestConcurrentRestoresShareOneStream: many workers restore from, run
// off and compare against one shared stream at once, each hopping
// between checkpoints in its own order, so cross-base restores, delta
// restores, snapshots of restored machines and convergence probes all
// read the same shared chunks and pages concurrently. Run under -race
// this is the proof that nothing writes a chunk after its snapshot
// returns; without -race it still checks every replay converges.
func TestConcurrentRestoresShareOneStream(t *testing.T) {
	cfg := machine.Configs()[0]
	golden := mustGolden(t, cfg)
	stream, _ := Record(machine.New(cfg, testProgram()), 1<<30, Cycles(golden.Cycles, 16))
	defer stream.Release()
	snaps := stream.Snaps()

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := machine.New(cfg, testProgram())
			for round := 0; round < 3*len(snaps); round++ {
				i := (round*(2*w+3) + w) % len(snaps)
				m.Restore(snaps[i])
				if round%4 == 0 {
					// A snapshot of a restored machine aliases the
					// stream's chunks; taking and dropping it must not
					// touch them.
					m.Snapshot().Release()
				}
				res, stopped := m.RunWatched(1<<30, stream.WatchesAfter(snaps[i].Cycle))
				switch {
				case i+1 < len(snaps) && (!stopped || res.Cycles != snaps[i+1].Cycle):
					t.Errorf("worker %d: replay from checkpoint %d did not converge at the next one (stopped=%v at cycle %d)", w, i, stopped, res.Cycles)
				case i+1 == len(snaps) && (stopped || res.Cycles != golden.Cycles):
					t.Errorf("worker %d: replay from the last checkpoint ended at cycle %d, golden %d", w, res.Cycles, golden.Cycles)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHaltImageBookkeeping: the halt image is part of what a stream
// holds — ResidentBytes counts its three chunk tables and the chunks
// the run touched after the last rung — and Release drops it with the
// rungs.
func TestHaltImageBookkeeping(t *testing.T) {
	cfg := machine.Configs()[0]
	golden := mustGolden(t, cfg)
	s, _ := Record(machine.New(cfg, testProgram()), 1<<30, Cycles(golden.Cycles, 3))
	halt := s.Halt()
	if halt == nil {
		t.Fatal("a stream with rungs holds no halt image")
	}
	with := s.ResidentBytes()
	s.halt = nil
	without := s.ResidentBytes()
	s.halt = halt
	var tables mem.Footprint
	tables.AddCache(halt.L1I)
	tables.AddCache(halt.L1D)
	tables.AddCache(halt.L2)
	if with <= without || with-without > tables.Bytes() {
		t.Errorf("stream holds %d bytes with its halt image and %d without; the image alone is %d", with, without, tables.Bytes())
	}
	s.Release()
	if s.Halt() != nil || s.Len() != 0 {
		t.Errorf("after Release: %d rungs, halt image %v", s.Len(), s.Halt())
	}
}
