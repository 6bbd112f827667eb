package binanalysis_test

// Cross-validation of the pruner's soundness claim against the actual
// simulator: every injection the static analysis proves masked is also
// simulated end to end, and the simulation must agree. This is the
// property the whole pruning optimization rests on; if the analyzer
// ever claims a live bit dead, this test catches it with the concrete
// (benchmark, level, cycle, bit) witness.

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

func TestPrunerSoundnessAgainstSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every pruned injection; skipped in -short")
	}
	cfg := machine.CortexA15Like()
	rf, ok := faultinj.TargetByName("RF")
	if !ok {
		t.Fatal("RF target missing")
	}
	const samplesPerCell = 400

	benches := []string{"qsort", "gsm", "sha"}
	var totalPruned atomic.Int64
	for _, name := range benches {
		bench, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range compiler.Levels {
			t.Run(fmt.Sprintf("%s-%s", name, level), func(t *testing.T) {
				t.Parallel()
				prog, err := compiler.Compile(bench.Source(bench.TestSize), bench.Name, level,
					compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
				if err != nil {
					t.Fatal(err)
				}
				exp, err := faultinj.NewTracedExperiment(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				a, err := binanalysis.AnalyzeWords(prog.Code)
				if err != nil {
					t.Fatal(err)
				}
				pruner, err := binanalysis.NewRFPruner(a, exp)
				if err != nil {
					t.Fatal(err)
				}
				if vs := binanalysis.CheckInvariants(a); len(vs) != 0 {
					t.Fatalf("compiler-emitted binary violates invariants: %v", vs)
				}
				b := pruner.Bound()
				if b.MaskedLB <= 0 || b.MaskedLB >= 1 || b.PrunableBits > b.SpaceBits {
					t.Fatalf("implausible bound: %+v", b)
				}
				injections, err := exp.Sample(rf, samplesPerCell, 13)
				if err != nil {
					t.Fatal(err)
				}
				pruned := 0
				for _, inj := range injections {
					prunable, reason := pruner.Prunable(rf, inj)
					if !prunable {
						continue
					}
					pruned++
					if r := exp.Inject(rf, inj); r.Outcome != faultinj.Masked {
						t.Errorf("cycle %d bit %d pruned (%s) but simulated as %s (%s)",
							inj.Cycle, inj.Bit, reason, r.Outcome, r.Reason)
					}
				}
				if pruned == 0 {
					t.Logf("no prunable injections in %d samples", samplesPerCell)
				}
				totalPruned.Add(int64(pruned))
			})
		}
	}
	// Subtests run in parallel, so totalPruned is checked in a cleanup
	// after they all finish.
	t.Cleanup(func() {
		if totalPruned.Load() == 0 {
			t.Error("no injection was prunable across any cell; cross-validation is vacuous")
		}
	})
}

// TestBitPrunerSoundnessAgainstSimulation is the bit-granular mirror:
// every injection the BitPruner proves masked — including the ones only
// bit-level liveness can prune — is simulated end to end and must come
// back Masked, with the concrete (benchmark, level, cycle, phys, bit)
// witness and the pruner's own reasoning printed on failure. It also
// checks the bound-domination acceptance criterion: the bit-granular
// Masked lower bound must be at least the register-granular one on
// every cell, and strictly greater somewhere at O2/O3 (the levels
// where masking idioms — byte truncation, shift counts, compares —
// survive into tight code).
func TestBitPrunerSoundnessAgainstSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every pruned injection; skipped in -short")
	}
	cfg := machine.CortexA15Like()
	rf, ok := faultinj.TargetByName("RF")
	if !ok {
		t.Fatal("RF target missing")
	}
	const samplesPerCell = 400

	benches := []string{"qsort", "gsm", "sha"}
	var totalBitPruned, strictlyTighterHighOpt atomic.Int64
	for _, name := range benches {
		bench, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range compiler.Levels {
			level := level
			t.Run(fmt.Sprintf("%s-%s", name, level), func(t *testing.T) {
				t.Parallel()
				prog, err := compiler.Compile(bench.Source(bench.TestSize), bench.Name, level,
					compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
				if err != nil {
					t.Fatal(err)
				}
				exp, err := faultinj.NewTracedExperiment(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				a, err := binanalysis.AnalyzeWords(prog.Code)
				if err != nil {
					t.Fatal(err)
				}
				pruner, err := binanalysis.NewBitPruner(a, exp)
				if err != nil {
					t.Fatal(err)
				}
				b := pruner.Bound()
				if b.MaskedLB <= 0 || b.MaskedLB >= 1 || b.PrunableBits > b.SpaceBits {
					t.Fatalf("implausible bound: %+v", b)
				}
				// Bit granularity must dominate register granularity.
				if b.MaskedLB < b.RegMaskedLB || b.PrunableBits < b.RegPrunableBits {
					t.Fatalf("bit bound below register bound: %+v", b)
				}
				if b.PrunableBits > b.RegPrunableBits &&
					(level == compiler.O2 || level == compiler.O3) {
					strictlyTighterHighOpt.Add(1)
				}
				injections, err := exp.Sample(rf, samplesPerCell, 13)
				if err != nil {
					t.Fatal(err)
				}
				bitPruned := 0
				for _, inj := range injections {
					kind, reason := pruner.PrunableKind(rf, inj)
					if kind == faultinj.PruneNone {
						continue
					}
					if kind == faultinj.PruneBit {
						bitPruned++
					}
					if r := exp.Inject(rf, inj); r.Outcome != faultinj.Masked {
						t.Errorf("%s %s: cycle %d phys %d bit %d pruned at %s granularity (%s) but simulated as %s (%s)",
							bench.Name, level, inj.Cycle,
							inj.Bit/uint64(cfg.CPU.XLEN), inj.Bit%uint64(cfg.CPU.XLEN),
							kind, reason, r.Outcome, r.Reason)
					}
				}
				totalBitPruned.Add(int64(bitPruned))
			})
		}
	}
	t.Cleanup(func() {
		if totalBitPruned.Load() == 0 {
			t.Error("no injection was pruned at bit granularity across any cell; the bit extension is vacuous")
		}
		if strictlyTighterHighOpt.Load() == 0 {
			t.Error("bit-granular bound never strictly exceeded the register-granular bound at O2/O3")
		}
	})
}

// TestDUEPrunerSoundnessAgainstSimulation validates the crash-proving
// tier on the full (bench, level, march) grid — 8 benchmarks x 4
// levels x 2 microarchitectures = 64 cells:
//
//   - every injection the DUEPruner claims crash-certain is simulated
//     end to end and must come back Crash (the DUE-soundness claim);
//   - the three-way bound partitions: MaskedLB + DueLB + SDCUpperBound
//     sums to 1 and the Masked fields match BitPruner's exactly;
//   - on the sampled fault set, the static DUE lower bound (sites
//     claimed crash-certain) sits at or below the dynamic crash count
//     and the static SDC-possible upper bound (sites proven neither
//     Masked nor DUE) at or above the dynamic SDC count, per cell;
//   - the pruner covers strictly more of the fault space than
//     BitPruner alone on at least one O2 and one O3 cell per march.
func TestDUEPrunerSoundnessAgainstSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every sampled injection; skipped in -short")
	}
	rf, ok := faultinj.TargetByName("RF")
	if !ok {
		t.Fatal("RF target missing")
	}
	const samplesPerCell = 200

	var totalDuePruned atomic.Int64
	var strictlyWiderO2, strictlyWiderO3 atomic.Int64
	for _, cfg := range machine.Configs() {
		for _, bench := range workloads.All() {
			for _, level := range compiler.Levels {
				cfg, bench, level := cfg, bench, level
				t.Run(fmt.Sprintf("%s-%s-%s", cfg.Name, bench.Name, level), func(t *testing.T) {
					t.Parallel()
					prog, err := compiler.Compile(bench.Source(bench.TestSize), bench.Name, level,
						compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
					if err != nil {
						t.Fatal(err)
					}
					exp, err := faultinj.NewTracedExperiment(cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					a, err := binanalysis.AnalyzeWords(prog.Code)
					if err != nil {
						t.Fatal(err)
					}
					pruner, err := binanalysis.NewDUEPruner(a, exp)
					if err != nil {
						t.Fatal(err)
					}
					bitOnly, err := binanalysis.NewBitPruner(a, exp)
					if err != nil {
						t.Fatal(err)
					}
					b, bb := pruner.Bound(), bitOnly.Bound()

					// Three-way partition: the Masked side is exactly the
					// bit pruner's, the DUE slice is non-negative, and the
					// classes sum to the whole space.
					if b.MaskedLB != bb.MaskedLB || b.PrunableBits != bb.PrunableBits ||
						b.RegMaskedLB != bb.RegMaskedLB {
						t.Fatalf("DUE tier changed the Masked bound: %+v vs %+v", b, bb)
					}
					if b.DueLB < 0 || b.DueLB > 1 || b.DuePrunableBits > b.SpaceBits {
						t.Fatalf("implausible DUE bound: %+v", b)
					}
					if sum := b.MaskedLB + b.DueLB + b.SDCUpperBound; sum < 0.999999 || sum > 1.000001 {
						t.Fatalf("three-way bound does not partition: sum %.9f (%+v)", sum, b)
					}
					if b.DuePrunableBits > 0 {
						switch level {
						case compiler.O2:
							strictlyWiderO2.Add(1)
						case compiler.O3:
							strictlyWiderO3.Add(1)
						}
					}

					injections, err := exp.Sample(rf, samplesPerCell, 13)
					if err != nil {
						t.Fatal(err)
					}
					duePruned, maskedClaimed, crashes, sdcs := 0, 0, 0, 0
					for _, inj := range injections {
						kind, reason := pruner.PrunableKind(rf, inj)
						r := exp.Inject(rf, inj)
						switch r.Outcome {
						case faultinj.Crash:
							crashes++
						case faultinj.SDC:
							sdcs++
						}
						switch kind {
						case faultinj.PruneReg, faultinj.PruneBit:
							maskedClaimed++
						case faultinj.PruneDUE:
							duePruned++
							if r.Outcome != faultinj.Crash {
								t.Errorf("%s %s %s: cycle %d phys %d bit %d claimed crash-certain (%s) but simulated as %s (%s)",
									cfg.Name, bench.Name, level, inj.Cycle,
									inj.Bit/uint64(cfg.CPU.XLEN), inj.Bit%uint64(cfg.CPU.XLEN),
									reason, r.Outcome, r.Reason)
							}
						}
					}
					// The static verdicts must bracket the dynamic class
					// counts on the same sample: sites claimed DUE are a
					// lower bound on crashes, and sites proven neither
					// Masked nor DUE (the SDC-possible set) an upper bound
					// on SDCs. Comparing counts over one sample keeps the
					// check deterministic and free of binomial slack —
					// space-wide fractions would need a confidence margin.
					if duePruned > crashes {
						t.Errorf("%s %s %s: %d sampled sites claimed crash-certain but only %d crashes observed",
							cfg.Name, bench.Name, level, duePruned, crashes)
					}
					if sdcUB := len(injections) - maskedClaimed - duePruned; sdcs > sdcUB {
						t.Errorf("%s %s %s: %d SDC outcomes exceed the %d-site static SDC-possible set",
							cfg.Name, bench.Name, level, sdcs, sdcUB)
					}
					totalDuePruned.Add(int64(duePruned))
				})
			}
		}
	}
	t.Cleanup(func() {
		if totalDuePruned.Load() == 0 {
			t.Error("no sampled injection was DUE-pruned across any cell; the crash tier is vacuous")
		}
		if strictlyWiderO2.Load() == 0 || strictlyWiderO3.Load() == 0 {
			t.Errorf("DUE tier never widened coverage beyond BitPruner at O2 (%d cells) / O3 (%d cells)",
				strictlyWiderO2.Load(), strictlyWiderO3.Load())
		}
	})
}

// TestPrunersRefuseUntracedExperiment: an experiment prepared without the
// commit trace has nothing to index, and every tier says so instead of
// proving nothing.
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
	if _, err := binanalysis.NewRFPruner(a, exp); err == nil {
		t.Error("NewRFPruner accepted an untraced experiment")
	}
	if _, err := binanalysis.NewDUEPruner(a, exp); err == nil {
		t.Error("NewDUEPruner accepted an untraced experiment")
	}
}
