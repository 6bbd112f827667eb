package binanalysis_test

// Cross-validation of the pruner's soundness claim against the actual
// simulator: every injection the static analysis gives a verdict on is
// also simulated end to end, and the simulation must agree. This is the
// property the whole pruning optimization rests on; if the analyzer
// ever claims a live bit dead, or a crash that does not happen, this
// catches it with the concrete (unit, cycle, register, bit) witness.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sevsim/internal/binanalysis"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// unit is one (march, bench, level) binary under its subtest name.
type unit struct {
	name  string
	cfg   machine.Config
	bench workloads.Benchmark
	level compiler.OptLevel
}

// grid is every bundled unit: 2 marches x 8 benchmarks x 4 levels.
func grid() []unit {
	var us []unit
	for _, cfg := range machine.Configs() {
		for _, bench := range workloads.All() {
			for _, level := range compiler.Levels {
				us = append(us, unit{fmt.Sprintf("%s-%s-%s", cfg.Name, bench.Name, level), cfg, bench, level})
			}
		}
	}
	return us
}

// a15 is the A15 units of three benchmarks, for a deeper sample than the
// grid's.
func a15(t *testing.T) []unit {
	var us []unit
	for _, name := range []string{"qsort", "gsm", "sha"} {
		bench, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range compiler.Levels {
			us = append(us, unit{fmt.Sprintf("%s-%s", name, level), machine.CortexA15Like(), bench, level})
		}
	}
	return us
}

// tally is what one run of checkSoundness saw, summed over its units.
type tally struct {
	verdicts     [faultinj.PruneDUE + 1]atomic.Int64 // re-simulated, by kind
	bitTighter   atomic.Int64                        // O2/O3 units whose bit bound beats the register one
	dueO2, dueO3 atomic.Int64                        // units with crash-certain points
}

// checkSoundness is the one check behind the three tests below. Per unit:
// the binary passes CheckInvariants; the static bound is plausible, its
// three classes partition the space and bit granularity dominates
// register granularity; and every one of samples uniform RF injections
// is simulated once, where each verdict the pruner gives must be the
// simulated outcome (Masked for PruneReg and PruneBit, Crash for
// PruneDUE) and the verdicts must bracket the outcome counts of the same
// sample: sites claimed DUE are a lower bound on crashes, and sites
// proven neither Masked nor DUE (the SDC-possible set) an upper bound on
// SDCs. Comparing counts over one sample keeps the check deterministic
// and free of binomial slack. done sees the tally once every unit is
// through, for the guards against a vacuous run.
func checkSoundness(t *testing.T, units []unit, samples int, seed int64, done func(*tally)) {
	if testing.Short() {
		t.Skip("simulates every sampled injection; skipped in -short")
	}
	rf, ok := faultinj.TargetByName("RF")
	if !ok {
		t.Fatal("RF target missing")
	}
	tl := &tally{}
	for _, u := range units {
		u := u
		t.Run(u.name, func(t *testing.T) {
			t.Parallel()
			xlen := uint64(u.cfg.CPU.XLEN)
			prog, err := compiler.Compile(u.bench.Source(u.bench.TestSize), u.bench.Name, u.level,
				compiler.Target{XLEN: u.cfg.CPU.XLEN, NumArchRegs: u.cfg.CPU.NumArchRegs})
			if err != nil {
				t.Fatal(err)
			}
			exp, err := faultinj.NewTracedExperiment(u.cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			defer exp.Close()
			a, err := binanalysis.AnalyzeWords(prog.Code)
			if err != nil {
				t.Fatal(err)
			}
			if vs := binanalysis.CheckInvariants(a); len(vs) != 0 {
				t.Fatalf("compiler-emitted binary violates invariants: %v", vs)
			}
			pruner, err := binanalysis.NewDUEPruner(a, exp)
			if err != nil {
				t.Fatal(err)
			}
			b := pruner.Bound()
			if b.MaskedLB <= 0 || b.MaskedLB >= 1 || b.PrunableBits > b.SpaceBits {
				t.Fatalf("implausible bound: %+v", b)
			}
			if b.MaskedLB < b.RegMaskedLB || b.PrunableBits < b.RegPrunableBits {
				t.Fatalf("bit bound below register bound: %+v", b)
			}
			if b.DueLB < 0 || b.DueLB > 1 || b.DuePrunableBits > b.SpaceBits {
				t.Fatalf("implausible DUE bound: %+v", b)
			}
			if sum := b.MaskedLB + b.DueLB + b.SDCUpperBound; sum < 0.999999 || sum > 1.000001 {
				t.Fatalf("three-way bound does not partition: sum %.9f (%+v)", sum, b)
			}
			if (u.level == compiler.O2 || u.level == compiler.O3) && b.PrunableBits > b.RegPrunableBits {
				tl.bitTighter.Add(1)
			}
			switch {
			case b.DuePrunableBits == 0:
			case u.level == compiler.O2:
				tl.dueO2.Add(1)
			case u.level == compiler.O3:
				tl.dueO3.Add(1)
			}

			injections, err := exp.Sample(rf, samples, seed)
			if err != nil {
				t.Fatal(err)
			}
			var claimed [len(tl.verdicts)]int
			crashes, sdcs := 0, 0
			for _, inj := range injections {
				kind, reason := pruner.PrunableKind(rf, inj)
				r := exp.Inject(rf, inj)
				switch r.Outcome {
				case faultinj.Crash:
					crashes++
				case faultinj.SDC:
					sdcs++
				}
				claimed[kind]++
				want := faultinj.Masked
				switch kind {
				case faultinj.PruneNone:
					continue
				case faultinj.PruneDUE:
					want = faultinj.Crash
				}
				tl.verdicts[kind].Add(1)
				if r.Outcome != want {
					t.Errorf("cycle %d phys %d bit %d: %s verdict (%s) but simulated as %s (%s)",
						inj.Cycle, inj.Bit/xlen, inj.Bit%xlen, kind, reason, r.Outcome, r.Reason)
				}
			}
			if due := claimed[faultinj.PruneDUE]; due > crashes {
				t.Errorf("%d sampled sites claimed crash-certain but only %d crashes observed", due, crashes)
			}
			if sdcUB := claimed[faultinj.PruneNone]; sdcs > sdcUB {
				t.Errorf("%d SDC outcomes exceed the %d-site static SDC-possible set", sdcs, sdcUB)
			}
		})
	}
	// Subtests run in parallel, so the tally is read in a cleanup after
	// they all finish.
	t.Cleanup(func() {
		t.Logf("re-simulated verdicts: %d reg, %d bit, %d due",
			tl.verdicts[faultinj.PruneReg].Load(), tl.verdicts[faultinj.PruneBit].Load(), tl.verdicts[faultinj.PruneDUE].Load())
		done(tl)
	})
}

// The three tests are three samples through checkSoundness, each holding
// the guard of one verdict kind: a run in which that kind never came up
// proves nothing about it.

func TestPrunerSoundnessAgainstSimulation(t *testing.T) {
	checkSoundness(t, a15(t), 400, 14, func(tl *tally) {
		if tl.verdicts[faultinj.PruneReg].Load() == 0 {
			t.Error("no injection was pruned at register granularity across any unit; cross-validation is vacuous")
		}
	})
}

// The bit-granular bound must also strictly exceed the register-granular
// one somewhere at O2/O3, the levels where masking idioms (byte
// truncation, shift counts, compares) survive into tight code.
func TestBitPrunerSoundnessAgainstSimulation(t *testing.T) {
	checkSoundness(t, a15(t), 400, 13, func(tl *tally) {
		if tl.verdicts[faultinj.PruneBit].Load() == 0 {
			t.Error("no injection was pruned at bit granularity across any unit; the bit verdict is vacuous")
		}
		if tl.bitTighter.Load() == 0 {
			t.Error("bit-granular bound never strictly exceeded the register-granular bound at O2/O3")
		}
	})
}

// The crash verdict must also cover part of the fault space of at least
// one O2 and one O3 unit.
func TestDUEPrunerSoundnessAgainstSimulation(t *testing.T) {
	checkSoundness(t, grid(), 200, 13, func(tl *tally) {
		if tl.verdicts[faultinj.PruneDUE].Load() == 0 {
			t.Error("no sampled injection was DUE-pruned across any unit; the crash verdict is vacuous")
		}
		if tl.dueO2.Load() == 0 || tl.dueO3.Load() == 0 {
			t.Errorf("no crash-certain point at O2 (%d units) / O3 (%d units)", tl.dueO2.Load(), tl.dueO3.Load())
		}
	})
}

// TestPrunersRefuseUntracedExperiment: an experiment prepared without the
// commit trace has nothing to index, and the constructor says so instead
// of proving nothing.
func TestPrunersRefuseUntracedExperiment(t *testing.T) {
	cfg := machine.CortexA15Like()
	bench := workloads.Qsort()
	prog, err := compiler.Compile(bench.Source(bench.TestSize), bench.Name, compiler.O2,
		compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := faultinj.NewExperiment(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	a, err := binanalysis.AnalyzeWords(prog.Code)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Trace.Len() != 0 {
		t.Errorf("untraced experiment holds %d events", exp.Trace.Len())
	}
	if _, err := binanalysis.NewDUEPruner(a, exp); err == nil {
		t.Error("NewDUEPruner accepted an untraced experiment")
	}
}
