package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// pruneSpec: one machine, two benchmarks, all four levels, RF only —
// the cells the static pruner can act on.
func pruneSpec(t *testing.T) Spec {
	t.Helper()
	qsort, err := workloads.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	gsm, err := workloads.ByName("gsm")
	if err != nil {
		t.Fatal(err)
	}
	rf, _ := faultinj.TargetByName("RF")
	return Spec{
		Machines:   []machine.Config{machine.CortexA15Like()},
		Benchmarks: []workloads.Benchmark{qsort, gsm},
		Levels:     compiler.Levels,
		Targets:    []faultinj.Target{rf},
		Faults:     80,
		Seed:       11,
		Size:       func(b workloads.Benchmark) int { return b.TestSize },
	}
}

// TestPruneEquivalence asserts the pruner's contract: a -prune study
// classifies every injection exactly as the unpruned study does (same
// seeds), while skipping a nonzero fraction of the simulations, and
// the recorded static AVF upper bound dominates the injected AVF on
// every cell.
func TestPruneEquivalence(t *testing.T) {
	spec := pruneSpec(t)
	base, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	spec.Prune = true
	pruned, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}

	if len(pruned.Results) != len(base.Results) {
		t.Fatalf("result count %d != %d", len(pruned.Results), len(base.Results))
	}
	totalPruned := 0
	for i := range base.Results {
		b, p := base.Results[i], pruned.Results[i]
		bc, pc := b.Counts, p.Counts
		if pc.PrunedReg+pc.PrunedBit+pc.PrunedDUE != pc.Pruned {
			t.Errorf("cell %s/%s/%s: pruned split %d+%d+%d != total %d",
				p.Bench, p.Level, p.Target, pc.PrunedReg, pc.PrunedBit, pc.PrunedDUE, pc.Pruned)
		}
		// the only fields allowed to differ from the unpruned run
		pc.Pruned, pc.PrunedReg, pc.PrunedBit, pc.PrunedDUE = 0, 0, 0, 0
		if bc != pc {
			t.Errorf("cell %s/%s/%s/%s classification changed: %+v -> %+v",
				b.March, b.Bench, b.Level, b.Target, b.Counts, p.Counts)
		}
		totalPruned += p.Counts.Pruned
		if m := p.Counts.PrunedReg + p.Counts.PrunedBit; m > p.Counts.Masked {
			t.Errorf("cell %s/%s/%s: masked-pruned %d exceeds masked %d",
				p.Bench, p.Level, p.Target, m, p.Counts.Masked)
		}
		if p.Counts.PrunedDUE > p.Counts.Crash {
			t.Errorf("cell %s/%s/%s: DUE-pruned %d exceeds crashes %d",
				p.Bench, p.Level, p.Target, p.Counts.PrunedDUE, p.Counts.Crash)
		}
	}
	if totalPruned == 0 {
		t.Error("pruner skipped zero injections across the whole study")
	}

	if len(pruned.Static) != len(pruned.Goldens) {
		t.Fatalf("static records %d != units %d", len(pruned.Static), len(pruned.Goldens))
	}
	if len(base.Static) != 0 {
		t.Errorf("unpruned study has %d static records, want none", len(base.Static))
	}
	for _, r := range pruned.Results {
		s, ok := pruned.StaticFor(r.March, r.Bench, r.Level)
		if !ok {
			t.Fatalf("missing static bound for %s/%s/%s", r.March, r.Bench, r.Level)
		}
		if s.MaskedLB <= 0 || s.MaskedLB >= 1 {
			t.Errorf("%s/%s: MaskedLB %v out of (0,1)", s.Bench, s.Level, s.MaskedLB)
		}
		if s.PrunableBits == 0 || s.PrunableBits > s.SpaceBits {
			t.Errorf("%s/%s: prunable bits %d / space %d", s.Bench, s.Level, s.PrunableBits, s.SpaceBits)
		}
		// Soundness: the static upper bound must dominate the injected AVF.
		if avf := r.AVF(); s.AVFUpperBound < avf {
			t.Errorf("%s/%s: static AVF bound %.4f below injected AVF %.4f",
				s.Bench, s.Level, s.AVFUpperBound, avf)
		}
		// The three-way bound must partition the space; the DUE slice
		// records only when the propagation analysis recorded anything.
		if sum := s.MaskedLB + s.DueLB + s.SDCUpperBound; sum < 0.999999 || sum > 1.000001 {
			t.Errorf("%s/%s: three-way bound does not partition: %.9f", s.Bench, s.Level, sum)
		}
		if s.DueLB < 0 || s.DuePrunableBits > s.SpaceBits {
			t.Errorf("%s/%s: implausible DUE bound %+v", s.Bench, s.Level, s)
		}
	}
}

// TestPruneDeterminismAcrossParallelism: a pruned study's saved JSON —
// including the static-bound records and the reg/bit pruned splits each
// unit's own analysis feeds — is byte-identical between the serial run
// and a parallel one.
func TestPruneDeterminismAcrossParallelism(t *testing.T) {
	spec := pruneSpec(t)
	spec.Benchmarks = spec.Benchmarks[:1]
	spec.Prune = true
	spec.Parallelism = 1
	base, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallelism = 8
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j, baseJSON) {
		t.Error("pruned study JSON not byte-identical between parallelism 1 and 8")
	}
}

// TestStaticUnsharedAcrossTwinMachines: two machines that differ only in
// name compile to the same binaries (same XLEN, same register count), so
// a study-wide cache once handed both one analysis. Now each unit
// analyzes its own binary; the static records of the twins must still be
// identical, march name apart.
func TestStaticUnsharedAcrossTwinMachines(t *testing.T) {
	spec := tinySpec(t)
	twin := machine.CortexA15Like()
	twin.Name += " twin"
	spec.Machines = []machine.Config{machine.CortexA15Like(), twin}
	spec.Targets = spec.Targets[:1]
	spec.Faults, spec.Prune, spec.Parallelism = 2, true, 2
	count := countFlight(t)
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range count.units {
		if u.held.analysis == 0 {
			t.Errorf("%s %s %s held no analysis of its own", u.cfg.Name, u.bench.Name, u.level)
		}
	}
	if units := len(spec.Benchmarks) * len(spec.Levels); len(count.units) != 2*units || len(st.Static) != 2*units {
		t.Fatalf("%d units, %d static records; want %d of each", len(count.units), len(st.Static), 2*units)
	}
	for _, a := range st.Static {
		if a.March == twin.Name {
			continue
		}
		b, ok := st.StaticFor(twin.Name, a.Bench, a.Level)
		if !ok {
			t.Fatalf("no static record for %s %s on the twin", a.Bench, a.Level)
		}
		if b.March = a.March; b != a || a.PrunableBits == 0 {
			t.Errorf("%s %s: twin's static record %+v, want %+v", a.Bench, a.Level, b, a)
		}
	}
}

// TestPruneDeterminism: a pruned study is reproducible run to run.
func TestPruneDeterminism(t *testing.T) {
	spec := pruneSpec(t)
	spec.Benchmarks = spec.Benchmarks[:1]
	spec.Levels = spec.Levels[:2]
	spec.Prune = true
	a, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("result %d differs:\n%+v\n%+v", i, a.Results[i], b.Results[i])
		}
	}
	for i := range a.Static {
		if a.Static[i] != b.Static[i] {
			t.Fatalf("static %d differs:\n%+v\n%+v", i, a.Static[i], b.Static[i])
		}
	}
}
