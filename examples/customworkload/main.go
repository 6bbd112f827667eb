// Customworkload shows how to characterize your own program: write it
// in MiniC, pick a microarchitecture, and measure the per-structure
// vulnerability of its execution — the workflow a reliability engineer
// would use to decide where protection matters for a specific kernel.
package main

import (
	"fmt"
	"log"
	"sort"

	"sevsim/internal/campaign"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
	"sevsim/internal/stats"
)

// A small fixed-point IIR filter: the kind of control-loop kernel that
// ends up in safety-critical firmware.
const src = `
global int hist[4];

func step(int x) int {
	// y[n] = (3*y[n-1] + 2*y[n-2] + x) / 8, fixed point.
	var int y = (3 * hist[0] + 2 * hist[1] + x) / 8;
	hist[3] = hist[2];
	hist[2] = hist[1];
	hist[1] = hist[0];
	hist[0] = y;
	return y;
}

func main() {
	var int seed = 1;
	var int cs = 0;
	var int i;
	for (i = 0; i < 3000; i = i + 1) {
		seed = (seed * 1103515245 + 12345) & 2147483647;
		var int y = step(seed % 1024);
		cs = (cs + y) & 2147483647;
	}
	out(cs);
	out(hist[0]);
}`

func main() {
	const faults = 150
	cfg := machine.CortexA15Like()
	tgt := compiler.TargetFor(cfg)
	prog, err := compiler.Compile(src, "iir", compiler.O2, tgt)
	if err != nil {
		log.Fatal(err)
	}
	exp, err := faultinj.NewExperiment(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iir filter on %s: %d cycles golden, %d instructions\n",
		cfg.Name, exp.GoldenCycles, len(prog.Code))

	type row struct {
		name string
		res  campaign.Result
	}
	var rows []row
	for _, target := range faultinj.Targets() {
		r := campaign.Run(exp, target, campaign.Options{Faults: faults, Seed: 42})
		rows = append(rows, row{target.Name(), r})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].res.AVF() > rows[j].res.AVF() })

	margin := stats.ErrorMargin(faults, 1<<40, 0.99)
	fmt.Printf("\nstructures ranked by vulnerability (±%.1f%% at 99%% confidence):\n", margin*100)
	for _, r := range rows {
		fmt.Printf("  %-10s AVF %6.2f%%  (SDC %.1f%%, crash %.1f%%, timeout %.1f%%, assert %.1f%%)\n",
			r.name, r.res.AVF()*100,
			r.res.ClassRate(faultinj.SDC)*100,
			r.res.ClassRate(faultinj.Crash)*100,
			r.res.ClassRate(faultinj.Timeout)*100,
			r.res.ClassRate(faultinj.Assert)*100)
	}
	fmt.Println("\nprotect the top of this list first.")
}
