// Quickstart: compile a MiniC program, run it on a simulated
// out-of-order core, and inject a handful of transient faults into the
// physical register file — the whole sevsim pipeline in one page.
package main

import (
	"fmt"
	"log"

	"sevsim/internal/campaign"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
)

const src = `
global int table[256];

func main() {
	var int i;
	for (i = 0; i < 256; i = i + 1) {
		table[i] = (i * 37 + 11) % 211;
	}
	var int sum = 0;
	for (i = 0; i < 256; i = i + 1) {
		sum = (sum + table[i] * i) & 2147483647;
	}
	out(sum);
}`

func main() {
	// 1. Compile at -O2 for the Cortex-A72-like 64-bit configuration.
	cfg := machine.CortexA72Like()
	tgt := compiler.TargetFor(cfg)
	prog, err := compiler.Compile(src, "quickstart", compiler.O2, tgt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d instructions\n", len(prog.Code))

	// 2. Run it fault-free (the "golden" reference).
	exp, err := faultinj.NewExperiment(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden run: %d cycles, output %v\n", exp.GoldenCycles, exp.GoldenOutput)

	// 3. Inject 200 single-bit faults into the physical register file.
	rf, _ := faultinj.TargetByName("RF")
	res := campaign.Run(exp, rf, campaign.Options{Faults: 200, Seed: 1})
	fmt.Printf("\nregister file: %d bits, 200 faults injected\n", res.StructBits)
	fmt.Printf("  masked  %3d\n  SDC     %3d\n  crash   %3d\n  timeout %3d\n  assert  %3d\n",
		res.Counts.Masked, res.Counts.SDC, res.Counts.Crash,
		res.Counts.Timeout, res.Counts.Assert)
	fmt.Printf("AVF = %.2f%%\n", res.AVF()*100)
}
