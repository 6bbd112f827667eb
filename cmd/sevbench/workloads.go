package main

import (
	"sevsim/internal/compiler"
	"sevsim/internal/core"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// workload is one study-shaped input of the benchmark. The four names
// are fixed: later issues refer to them.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string

	// spec builds the study; it leaves the execution knobs
	// (Parallelism, Journal, Cache) to the runner. smoke swaps in the
	// benchmarks' TestSize and one fault per cell so `go test` can run
	// every workload in seconds.
	spec func(seed int64, smoke bool) core.Spec

	journal bool // each repetition journals to a fresh path, as sevrepro defaults
	dist    bool // repetitions go through an in-process coordinator and P workers

	// ref names the testdata/<ref>.ref file the per-cell counts are
	// pinned in; dist_warm shares paper_study's because its bytes must
	// equal paper_study's.
	ref string

	// The traced run drives every unitStride-th prep unit and, inside
	// those, every cellStride-th cell, so it stays inside one run's time
	// budget. Strides are coprime to the 4 levels and 8 benchmarks so
	// the sample rotates through all of them.
	unitStride, cellStride int
}

// Fault counts are frozen here. ISSUE 11 sized paper_study at 8 faults
// per cell (~20 s per repetition on the 2-core reference host). The
// benchmark contract allows ~30 s for a whole run, and a run is only
// steady on this host when it holds five or six repetitions (the
// fastest is reported, see reportUntraced), so the counts are lowered —
// never the shape — until a repetition takes 4-5 s.
const (
	paperFaults = 1
	deepFaults  = 18
)

func sized(spec *core.Spec, smoke bool, scale int) {
	spec.Size = func(b workloads.Benchmark) int {
		if smoke {
			return b.TestSize
		}
		return b.DefaultSize * scale
	}
}

func paperSpec(seed int64, smoke bool) core.Spec {
	spec := core.DefaultSpec(paperFaults)
	spec.Seed = seed
	sized(&spec, smoke, 1)
	return spec
}

func deepSpec(seed int64, smoke bool) core.Spec {
	spec := core.Spec{
		Machines:   machine.Configs(),
		Benchmarks: []workloads.Benchmark{workloads.Qsort(), workloads.SHA()},
		Levels:     []compiler.OptLevel{compiler.O0, compiler.O2},
		Targets:    faultinj.Targets(),
		Faults:     deepFaults,
		Seed:       seed,
		Prune:      true,
	}
	if smoke {
		spec.Faults = 1
	}
	sized(&spec, smoke, 1)
	return spec
}

func prepSpec(seed int64, smoke bool) core.Spec {
	spec := core.DefaultSpec(1)
	spec.Seed = seed
	spec.Levels = []compiler.OptLevel{compiler.O0, compiler.O2}
	spec.Targets = rfOnly()
	spec.Prune = true
	sized(&spec, smoke, 2)
	return spec
}

// rfOnly is the register-file target alone: the cut every warm-up pass
// makes so that all units are prepared and almost nothing is injected.
func rfOnly() []faultinj.Target {
	t, ok := faultinj.TargetByName("RF")
	if !ok {
		panic("sevbench: faultinj has no RF target")
	}
	return []faultinj.Target{t}
}

var allWorkloads = []workload{
	{
		name: "paper_study",
		why:  "north-star shape: 2 marches x 8 benches x 4 levels x 15 targets, journal on; few faults per cell, so cold restores and per-cell overhead are paid 960 times",
		spec: paperSpec, journal: true, ref: "paper_study",
		unitStride: 3, cellStride: 1,
	},
	{
		name: "deep_cells",
		why:  "same injection path used deeply: 120 cells x 18 faults with the pruner on, so delta restores and pruner hits show and prep is under 10%",
		spec: deepSpec, ref: "deep_cells",
		unitStride: 1, cellStride: 4,
	},
	{
		name: "prep_sweep",
		why:  "bypasses injection: 32 units (both marches, 8 benches, O0 and O2) at 2x size, RF only, 1 fault, prune on; compile, golden run, checkpoint record and static analysis do nearly all the work",
		spec: prepSpec, ref: "prep_sweep",
		unitStride: 3, cellStride: 1,
	},
	{
		name: "dist_warm",
		why:  "paper_study's spec through an in-process coordinator and P workers on a warm shared cache: leases, journals, cache reads; zero compiles in the timed region",
		spec: paperSpec, dist: true, ref: "paper_study",
		unitStride: 3, cellStride: 1,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
