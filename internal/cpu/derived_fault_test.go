package cpu_test

import (
	"math/rand"
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/checkpoint"
	"sevsim/internal/compiler"
	"sevsim/internal/cpu"
	"sevsim/internal/machine"
	"sevsim/internal/simerr"
	"sevsim/internal/workloads"
)

// TestDerivedIndicesSurviveFaultsAndRestores drives two bundled units
// per microarchitecture through random single-bit flips over all nine
// core fields, interleaved with machine snapshots and restores —
// including restores from a checkpoint stream that went through its
// byte encoding — and recomputes every derived index from the slabs
// after each flip, each restore and each cycle. A run that a flip kills
// (crash, assert, early halt) continues from a restored snapshot.
func TestDerivedIndicesSurviveFaultsAndRestores(t *testing.T) {
	units := []struct {
		bench string
		level compiler.OptLevel
	}{{"qsort", compiler.O2}, {"dijkstra", compiler.O0}}
	for _, cfg := range machine.Configs() {
		for _, u := range units {
			t.Run(cfg.CPU.Name+"/"+u.bench, func(t *testing.T) {
				b, err := workloads.ByName(u.bench)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := compiler.Compile(b.Source(b.TestSize), b.Name, u.level,
					compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
				if err != nil {
					t.Fatal(err)
				}
				driveDerived(t, cfg, prog)
			})
		}
	}
}

func driveDerived(t *testing.T, cfg machine.Config, prog *machine.Program) {
	// Restore points: a golden ladder decoded from its own bytes, plus
	// snapshots taken below from whatever (possibly faulty) state the
	// run is in.
	recorded, res := checkpoint.RecordOnline(machine.New(cfg, prog), 1<<40, 8)
	if res.Outcome != machine.OutcomeOK {
		t.Fatalf("golden run ended %v %s", res.Outcome, res.Reason)
	}
	var w binio.Writer
	recorded.EncodeTo(&w)
	recorded.Release()
	decoded, err := checkpoint.DecodeStream(binio.NewReader(w.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer decoded.Release()
	points := append([]*machine.Snap(nil), decoded.Snaps()...)
	taken := 0
	defer func() {
		for _, sn := range points[len(points)-taken:] {
			sn.Release()
		}
	}()

	m := machine.New(cfg, prog)
	check := func(when string) {
		t.Helper()
		if err := m.Core.CheckDerived(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	// step reports whether the run can go on; an assert raised by
	// corrupted state ends it like a crash does.
	step := func() (alive bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*simerr.Assert); !ok {
					panic(r)
				}
				alive = false
			}
		}()
		return m.Core.Step()
	}

	rng := rand.New(rand.NewSource(int64(len(prog.Code))))
	nextFlip, nextSnap := uint64(100), uint64(700)
	flips, restores := 0, 0
	for steps := 0; steps < 60000; steps++ {
		cyc := m.Core.Cycle()
		if cyc >= nextFlip {
			f := cpu.Field(rng.Intn(int(cpu.NumFields)))
			m.Core.FlipBit(f, uint64(rng.Int63n(int64(m.Core.FieldBits(f)))))
			flips++
			check("after a " + f.String() + " flip")
			nextFlip = cyc + 100 + uint64(rng.Intn(400))
		}
		if cyc >= nextSnap {
			if taken < 8 {
				points = append(points, m.Snapshot())
				taken++
			}
			nextSnap = cyc + 500 + uint64(rng.Intn(1500))
		}
		if alive := step(); alive && rng.Intn(4000) != 0 {
			check("after a step")
			continue
		}
		sn := points[rng.Intn(len(points))]
		m.Restore(sn)
		restores++
		check("after a restore")
		nextFlip = sn.Cycle + uint64(rng.Intn(300))
		nextSnap = sn.Cycle + 500 + uint64(rng.Intn(1500))
	}
	if flips < 50 || restores < 5 {
		t.Fatalf("drive too tame to mean anything: %d flips, %d restores", flips, restores)
	}
}
