// Command sevablate implements the paper's stated future work: it
// characterizes the impact of *individual* optimizations (rather than
// whole -O levels) on performance and on a hardware structure's
// vulnerability. Starting from a level's full pass set, it disables one
// optimization at a time and re-measures.
//
// Usage:
//
//	sevablate -bench gsm -O O2 -march a72
//	sevablate -bench qsort -O O3 -march a15 -target RF -faults 300
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"

	"sevsim/internal/campaign"
	"sevsim/internal/cli"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
)

func main() {
	bench := flag.String("bench", "gsm", "benchmark name")
	srcFile := flag.String("src", "", "MiniC source file")
	size := flag.Int("size", 0, "benchmark scale (0 = default)")
	levelFlag := flag.String("O", "O2", "baseline optimization level O0..O3")
	marchFlag := flag.String("march", "a72", "microarchitecture: a15 or a72")
	targetFlag := flag.String("target", "", "also measure this structure's AVF (e.g. RF)")
	faults := flag.Int("faults", 200, "faults per AVF measurement")
	seed := flag.Int64("seed", 2021, "sampling seed")
	par := flag.Int("parallel", 0, "concurrent measurements (0 = GOMAXPROCS)")
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
	tgt := compiler.TargetFor(cfg)
	base := compiler.LevelPasses(level, tgt)

	var avfTarget *faultinj.Target
	if *targetFlag != "" {
		t, ok := faultinj.TargetByName(*targetFlag)
		if !ok {
			cli.Fatal(fmt.Errorf("unknown target %q", *targetFlag))
		}
		avfTarget = &t
	}

	type row struct {
		label string
		ps    compiler.PassSet
	}
	rows := []row{{label: "full " + level.String(), ps: base}}
	for _, pass := range compiler.PassNames() {
		reduced := base.Without(pass)
		if reduced == base {
			continue // pass not in this level's set
		}
		rows = append(rows, row{label: "  - " + pass, ps: reduced})
	}

	fmt.Printf("%s on %s, baseline %s\n\n", name, cfg.Name, level)
	fmt.Printf("%-16s %10s %8s %9s", "configuration", "cycles", "vs full", "code")
	if avfTarget != nil {
		fmt.Printf(" %12s", avfTarget.Name()+" AVF")
	}
	fmt.Println()

	// Rows are measured concurrently: compiles and baseline runs are
	// gated by a semaphore sized to the worker count, and the AVF
	// campaigns of every row share one worker pool. Output stays in row
	// order.
	workers := cli.Parallelism(*par)
	pool := campaign.NewPool(workers)
	defer pool.Close()
	sem := make(chan struct{}, workers)
	ctx, stop := cli.Interruptible()
	defer stop()

	type measured struct {
		cycles uint64
		code   int
		avf    float64
		skip   string
		intr   bool
		err    error
	}
	out := make([]measured, len(rows))
	// measure compiles one row and takes its golden run: from the row's
	// experiment when an AVF is wanted, so it is simulated once, from a
	// plain run otherwise. The caller closes the experiment.
	measure := func(r row, m *measured) (*faultinj.Experiment, error) {
		goldenFailed := func(res machine.Result) error {
			return fmt.Errorf("%s: %v %s", r.label, res.Outcome, res.Reason)
		}
		prog, err := compiler.CompileWithPasses(src, name, r.ps, tgt)
		if err != nil {
			return nil, err
		}
		m.code = len(prog.Code)
		if avfTarget == nil {
			res := machine.New(cfg, prog).Run(1 << 34)
			if res.Outcome != machine.OutcomeOK {
				return nil, goldenFailed(res)
			}
			m.cycles = res.Cycles
			return nil, nil
		}
		exp, err := faultinj.NewExperimentOptions(cfg, prog, faultinj.Options{})
		var ge *faultinj.GoldenError
		if errors.As(err, &ge) {
			return nil, goldenFailed(ge.Result)
		}
		if err != nil {
			return nil, err
		}
		m.cycles = exp.GoldenCycles
		return exp, nil
	}
	var wg sync.WaitGroup
	for i, r := range rows {
		wg.Add(1)
		go func(i int, r row) {
			defer wg.Done()
			sem <- struct{}{}
			exp, err := measure(r, &out[i])
			// The campaign runs on the shared pool; this goroutine only
			// waits, so its semaphore slot is released first.
			<-sem
			if err != nil {
				out[i].err = err
				return
			}
			if exp == nil {
				return
			}
			defer exp.Close()
			cr := campaign.Run(exp, *avfTarget, campaign.Options{
				Faults: *faults, Seed: *seed, Pool: pool, Context: ctx,
			})
			out[i].avf = cr.AVF()
			out[i].skip = cr.Skipped
			out[i].intr = cr.Interrupted
		}(i, r)
	}
	wg.Wait()

	fullCycles := out[0].cycles
	interrupted := false
	for i, r := range rows {
		m := out[i]
		if m.err != nil {
			cli.Fatal(m.err)
		}
		fmt.Printf("%-16s %10d %7.3fx %8dw", r.label, m.cycles,
			float64(m.cycles)/float64(fullCycles), m.code)
		if avfTarget != nil {
			switch {
			case m.intr:
				interrupted = true
				fmt.Printf("   interrupted")
			case m.skip != "":
				fmt.Printf("   skipped: %s", m.skip)
			default:
				fmt.Printf(" %11.2f%%", m.avf*100)
			}
		}
		fmt.Println()
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "interrupted: AVF columns marked interrupted are incomplete")
		os.Exit(cli.ExitInterrupted) //lint:exit process boundary: interrupted-run exit after partial output is printed
	}
}
