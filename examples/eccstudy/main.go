// Eccstudy reproduces the shape of the paper's Figure 12 for one
// benchmark: whole-CPU FIT rates per optimization level under the three
// protection scenarios (no ECC, ECC on L1D+L2, ECC on L2 only),
// illustrating the paper's headline finding that with caches protected,
// O2 is the most reliable level while O3 is the worst.
package main

import (
	"fmt"
	"log"

	"sevsim/internal/campaign"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/fit"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

func main() {
	const faults = 80 // per cell; raise for tighter error margins
	bench, err := workloads.ByName("blowfish")
	if err != nil {
		log.Fatal(err)
	}
	// A reduced scale keeps this example to a few minutes on one core.
	src := bench.Source(bench.TestSize * 3)

	for _, cfg := range machine.Configs() {
		tgt := compiler.TargetFor(cfg)
		fmt.Printf("[%s] %s, %d faults per structure field\n", cfg.Name, bench.Name, faults)

		perLevel := map[compiler.OptLevel][]campaign.Result{}
		for _, level := range compiler.Levels {
			prog, err := compiler.Compile(src, bench.Name, level, tgt)
			if err != nil {
				log.Fatal(err)
			}
			exp, err := faultinj.NewExperiment(cfg, prog)
			if err != nil {
				log.Fatal(err)
			}
			for _, target := range faultinj.Targets() {
				r := campaign.Run(exp, target, campaign.Options{Faults: faults, Seed: 7})
				perLevel[level] = append(perLevel[level], r)
			}
		}

		fmt.Printf("%-16s", "scheme")
		for _, level := range compiler.Levels {
			fmt.Printf(" %10s", level)
		}
		fmt.Println()
		for _, scheme := range fit.Schemes() {
			fmt.Printf("%-16s", scheme)
			for _, level := range compiler.Levels {
				cpuFIT := fit.CPU(perLevel[level], cfg.RawFITPerBit, scheme)
				fmt.Printf(" %10.4f", cpuFIT)
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
