package binanalysis_test

import (
	"testing"

	"sevsim/internal/binanalysis"
	"sevsim/internal/compiler"
	"sevsim/internal/isa"
)

// TestSolverMatchesRoundRobin holds the worklist solver to a round-robin
// reference on every block, for every fixpoint the analyzer runs, over
// the 64 bundled units and the programs of the two analysis fuzzers'
// seed corpora at both word widths. Nothing is simulated.
func TestSolverMatchesRoundRobin(t *testing.T) {
	check := func(t *testing.T, words []uint32, xlen int) {
		a, err := binanalysis.AnalyzeWords(words)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range binanalysis.SolverMismatches(a, xlen) {
			t.Error(m)
		}
	}
	for _, u := range grid() {
		t.Run(u.name, func(t *testing.T) {
			prog, err := compiler.Compile(u.bench.Source(u.bench.TestSize), u.bench.Name, u.level, compiler.TargetFor(u.cfg))
			if err != nil {
				t.Fatal(err)
			}
			check(t, prog.Code, u.cfg.CPU.XLEN)
		})
	}
	for _, xlen := range []int{32, 64} {
		for _, seed := range knownBitsSeeds {
			prog, _ := buildFuzzProgram(seed)
			check(t, isa.Assemble(prog), xlen)
		}
		for _, seed := range propagationSeeds {
			check(t, isa.Assemble(buildMemFuzzProgram(seed)), xlen)
		}
	}
}
