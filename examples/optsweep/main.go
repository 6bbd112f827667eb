// Optsweep reproduces the shape of the paper's Figure 1 for a chosen
// benchmark: it compiles the benchmark at O0..O3 for both
// microarchitectures and reports cycles, IPC, code size, and the
// hardware-structure utilization shifts that drive the AVF differences
// (more live physical registers, fewer dynamic instructions, denser
// issue) as optimization increases.
package main

import (
	"fmt"
	"log"
	"os"

	"sevsim/internal/compiler"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

func main() {
	name := "dijkstra"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	bench, err := workloads.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	src := bench.Source(bench.DefaultSize)
	fmt.Printf("benchmark %s (size %d): %s\n", bench.Name, bench.DefaultSize, bench.Traits)

	for _, cfg := range machine.Configs() {
		tgt := compiler.TargetFor(cfg)
		fmt.Printf("\n[%s]\n", cfg.Name)
		fmt.Printf("%-5s %10s %8s %7s %8s %9s %9s %9s\n",
			"level", "cycles", "speedup", "IPC", "code", "PRF live", "ROB occ", "IQ occ")
		var baseline uint64
		for _, level := range compiler.Levels {
			prog, err := compiler.Compile(src, bench.Name, level, tgt)
			if err != nil {
				log.Fatal(err)
			}
			res := machine.New(cfg, prog).Run(1 << 34)
			if res.Outcome != machine.OutcomeOK {
				log.Fatalf("%s %v: %v %s", bench.Name, level, res.Outcome, res.Reason)
			}
			if level == compiler.O0 {
				baseline = res.Cycles
			}
			c := float64(res.Stats.Cycles)
			fmt.Printf("%-5s %10d %7.2fx %7.2f %7dw %9.1f %9.1f %9.1f\n",
				level, res.Cycles, float64(baseline)/float64(res.Cycles),
				res.Stats.IPC(), len(prog.Code),
				float64(res.Stats.PRFLive)/c,
				float64(res.Stats.ROBOccupancy)/c,
				float64(res.Stats.IQOccupancy)/c)
		}
	}
	fmt.Println("\nOptimization shrinks execution time while shifting pressure between")
	fmt.Println("structures (registers hold live values longer; queues drain faster) —")
	fmt.Println("the tension the paper's FPE metric and Figure 9 deltas capture.")
}
