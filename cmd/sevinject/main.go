// Command sevinject runs one statistical fault-injection campaign: N
// single-bit faults into one hardware structure field while the chosen
// benchmark binary executes, with per-class outcome rates and the
// statistical error margin.
//
// Usage:
//
//	sevinject -bench qsort -O O2 -march a15 -target RF -faults 2000
//	sevinject -bench sha -O O0 -march a72 -target L1D.data -faults 500
//	sevinject -bench gsm -O O1 -march a15 -all -faults 200
package main

import (
	"flag"
	"fmt"
	"os"

	"sevsim/internal/binanalysis"
	"sevsim/internal/campaign"
	"sevsim/internal/cli"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/stats"
)

func main() {
	bench := flag.String("bench", "", "benchmark name")
	srcFile := flag.String("src", "", "MiniC source file")
	size := flag.Int("size", 0, "benchmark scale (0 = default)")
	levelFlag := flag.String("O", "O2", "optimization level O0..O3")
	marchFlag := flag.String("march", "a15", "microarchitecture: a15 or a72")
	targetFlag := flag.String("target", "RF", "structure field (e.g. RF, L1D.data, ROB.pc)")
	all := flag.Bool("all", false, "inject into every structure field")
	faults := flag.Int("faults", 2000, "faults per campaign (paper: 2000)")
	seed := flag.Int64("seed", 2021, "sampling seed")
	par := flag.Int("parallel", 0, "concurrent injections (0 = GOMAXPROCS)")
	modelFlag := flag.String("model", "single", "fault model: single, double, quad (multi-bit upsets)")
	prune := flag.Bool("prune", false, "statically prune provably-masked RF injections (identical outcomes, less simulation)")
	flag.Parse()

	cfg, err := cli.March(*marchFlag)
	if err != nil {
		cli.Fatal(err)
	}
	level, err := compiler.ParseLevel(*levelFlag)
	if err != nil {
		cli.Fatal(err)
	}
	name, src, err := cli.LoadSource(*bench, *srcFile, *size)
	if err != nil {
		cli.Fatal(err)
	}
	prog, err := compiler.Compile(src, name, level, compiler.TargetFor(cfg))
	if err != nil {
		cli.Fatal(err)
	}
	exp, err := faultinj.NewExperimentOptions(cfg, prog, faultinj.Options{Traced: *prune})
	if err != nil {
		cli.Fatal(err)
	}
	var pruner faultinj.Pruner
	if *prune {
		a, err := binanalysis.AnalyzeWords(prog.Code)
		if err != nil {
			cli.Fatal(err)
		}
		bp, err := binanalysis.NewDUEPruner(a, exp)
		if err != nil {
			cli.Fatal(err)
		}
		pruner = bp
		b := bp.Bound()
		fmt.Printf("static RF bound: Masked >= %.2f%% (register-granular %.2f%%), DUE >= %.2f%%, SDC <= %.2f%%\n",
			b.MaskedLB*100, b.RegMaskedLB*100, b.DueLB*100, b.SDCUpperBound*100)
	}
	model := faultinj.SingleBit
	switch *modelFlag {
	case "single":
	case "double":
		model = faultinj.DoubleAdjacent
	case "quad":
		model = faultinj.QuadAdjacent
	default:
		cli.Fatal(fmt.Errorf("unknown fault model %q", *modelFlag))
	}
	fmt.Printf("%s %s on %s: golden run %d cycles, %d outputs, %s faults\n",
		name, level, cfg.Name, exp.GoldenCycles, len(exp.GoldenOutput), model)
	if stream := exp.Artifacts().Stream; stream != nil {
		fmt.Printf("checkpoints: %d, holding %.0f KiB (cache chunks and memory pages they share counted once)\n",
			stream.Len(), float64(stream.ResidentBytes())/1024)
	}

	var targets []faultinj.Target
	if *all {
		targets = faultinj.Targets()
	} else {
		t, ok := faultinj.TargetByName(*targetFlag)
		if !ok {
			cli.Fatal(fmt.Errorf("unknown target %q", *targetFlag))
		}
		targets = []faultinj.Target{t}
	}

	// The targets run as one campaign on one worker pool: their
	// injections share the walk through each checkpoint interval, and the
	// machine stays saturated across target boundaries. Ctrl-C drains
	// in-flight injections and reports the partial campaigns.
	pool := campaign.NewPool(cli.Parallelism(*par))
	defer pool.Close()
	ctx, stop := cli.Interruptible()
	defer stop()

	cells := make([]campaign.Cell, len(targets))
	for i, t := range targets {
		cells[i] = campaign.Cell{Target: t, Seed: *seed}
	}
	results := make([]campaign.Result, len(targets))
	campaign.RunUnit(exp, cells, campaign.Options{
		Faults: *faults, Pool: pool, Model: model, Pruner: pruner, Context: ctx,
	}, func(i int, r campaign.Result, err error) {
		if err != nil {
			cli.Fatal(fmt.Errorf("%s: %w", targets[i].Name(), err))
		}
		results[i] = r
	})

	interrupted := false
	fmt.Printf("\n%-10s %8s %8s  %7s %7s %7s %7s %7s\n",
		"target", "bits", "faults", "AVF", "SDC", "Crash", "Timeout", "Assert")
	for i, t := range targets {
		r := results[i]
		if r.Interrupted {
			interrupted = true
			fmt.Printf("%-10s %8d  interrupted after %d/%d injections\n",
				t.Name(), r.StructBits, r.Faults, *faults)
			continue
		}
		if r.Skipped != "" {
			fmt.Printf("%-10s %8d  skipped: %s\n", t.Name(), r.StructBits, r.Skipped)
			continue
		}
		fmt.Printf("%-10s %8d %8d  %6.2f%% %6.2f%% %6.2f%% %6.2f%% %6.2f%%\n",
			t.Name(), r.StructBits, r.Faults,
			r.AVF()*100,
			r.ClassRate(faultinj.SDC)*100,
			r.ClassRate(faultinj.Crash)*100,
			r.ClassRate(faultinj.Timeout)*100,
			r.ClassRate(faultinj.Assert)*100)
		if r.Counts.Pruned > 0 {
			fmt.Printf("  pruned: %d/%d proven statically (%d register-granular + %d bit-granular Masked, %d crash-certain DUE; never simulated)\n",
				r.Counts.Pruned, r.Faults, r.Counts.PrunedReg, r.Counts.PrunedBit, r.Counts.PrunedDUE)
		}
		if r.Counts.Unexpected > 0 {
			fmt.Printf("  WARNING: %d unexpected simulator panics\n", r.Counts.Unexpected)
		}
	}
	if fp := exp.FastPathStats(); fp != (faultinj.FastPathStats{}) {
		fmt.Printf("\nfast path: %s\n", fp)
	}
	margin := stats.ErrorMargin(*faults, 1<<40, 0.99)
	fmt.Printf("\nsampling error margin: ±%.2f%% at 99%% confidence\n", margin*100)
	if interrupted {
		fmt.Fprintln(os.Stderr, "interrupted: partial campaigns above cover only the completed injections")
		os.Exit(cli.ExitInterrupted) //lint:exit process boundary: interrupted-run exit after partial campaigns are printed
	}
}
