// Command sevrepro regenerates every table and figure of the paper:
// it runs the full characterization study (both microarchitectures, all
// eight benchmarks, four optimization levels, all fifteen structure
// fields) and writes the results as text figures, CSV, and JSON.
//
// The paper's full scale is -faults 2000 with large inputs; the default
// here is a laptop-scale run that preserves the comparative shape.
//
// Usage:
//
//	sevrepro -faults 150 -out results
//	sevrepro -faults 2000 -scale 2 -out results-full   # closer to paper scale
//	sevrepro -load results/study.json -out results     # re-render only
//
// Runs are journaled by default (<out>/journal.jsonl): Ctrl-C drains
// gracefully, and re-running the same command resumes from the last
// completed cell, producing the same study.json an uninterrupted run
// would have.
//
// A unit that fails to compile, golden-run or analyze, and a cell whose
// sampling panics, is quarantined: the rest of the study runs on, the
// failures table in figures.txt lists it, and sevrepro exits 1 after
// writing study.json, figures.txt and campaigns.csv.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sevsim/internal/cli"
	"sevsim/internal/core"
	"sevsim/internal/journal"
	"sevsim/internal/report"
	"sevsim/internal/workloads"
)

func main() {
	faults := flag.Int("faults", 150, "faults per campaign cell (paper: 2000)")
	seed := flag.Int64("seed", 2021, "master sampling seed")
	outDir := flag.String("out", "results", "output directory")
	scale := flag.Float64("scale", 1.0, "benchmark size multiplier")
	load := flag.String("load", "", "re-render figures from a saved study.json instead of running")
	par := flag.Int("parallel", 0, "study-wide worker pool size (0 = GOMAXPROCS); results are identical at any setting")
	prune := flag.Bool("prune", false, "statically prune provably-masked RF injections (identical outcomes, less simulation)")
	jpath := flag.String("journal", "", "durable journal path for kill-and-resume (default <out>/journal.jsonl; \"off\" disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	// The output directory must itself be durable before the journal and
	// study files inside it are: a crash that loses the dentry loses
	// everything written under it, fsynced or not.
	if err := journal.MkdirAllSync(*outDir, 0o755); err != nil {
		fatal(err)
	}

	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	var st *core.Study
	if *load != "" {
		var err error
		st, err = core.Load(*load)
		if err != nil {
			fatal(err)
		}
	} else {
		spec := core.DefaultSpec(*faults)
		spec.Seed = *seed
		spec.Parallelism = cli.Parallelism(*par)
		spec.Prune = *prune
		switch *jpath {
		case "off":
		case "":
			spec.Journal = filepath.Join(*outDir, "journal.jsonl")
		default:
			spec.Journal = *jpath
		}
		if *scale != 1.0 {
			spec.Size = func(b workloads.Benchmark) int {
				s := int(float64(b.DefaultSize) * *scale)
				if s < 1 {
					s = 1
				}
				return s
			}
		}
		spec.Progress = cli.Progress(*quiet)

		ctx, stop := cli.Interruptible()
		start := time.Now() //lint:clock progress display only; elapsed time never reaches study.json
		var err error
		st, err = spec.RunContext(ctx)
		stop()
		if err != nil {
			if errors.Is(err, context.Canceled) && spec.Journal != "" {
				fmt.Fprintf(os.Stderr, "\ninterrupted: completed cells are journaled in %s\n", spec.Journal)
				fmt.Fprintln(os.Stderr, "re-run the same command to resume from where it stopped")
				stopProfiles()
				os.Exit(cli.ExitInterrupted) //lint:exit process boundary: interrupted-study exit after the journal is flushed
			}
			fatal(err)
		}
		fmt.Printf("\nstudy complete: %d campaign cells, %d injections, %s\n",
			len(st.Results), len(st.Results)*(*faults),
			time.Since(start).Round(time.Second)) //lint:clock progress display only; elapsed time never reaches study.json
		if err := st.Save(filepath.Join(*outDir, "study.json")); err != nil {
			fatal(err)
		}
		// The study is durably saved; the journal has served its purpose.
		if spec.Journal != "" {
			if err := journal.Remove(spec.Journal); err != nil {
				fmt.Fprintln(os.Stderr, "warning: could not remove journal:", err)
			}
		}
	}

	// Render the full figure set.
	figPath := filepath.Join(*outDir, "figures.txt")
	f, err := os.Create(figPath)
	if err != nil {
		fatal(err)
	}
	report.Everything(f, st)
	if err := f.Close(); err != nil {
		fatal(err)
	}

	// Raw campaign data as CSV for downstream plotting.
	csvPath := filepath.Join(*outDir, "campaigns.csv")
	c, err := os.Create(csvPath)
	if err != nil {
		fatal(err)
	}
	report.Campaigns(c, st)
	if err := c.Close(); err != nil {
		fatal(err)
	}

	// Pruner hit rates: how much simulation the static analyses saved,
	// split by the granularity/class that proved each injection.
	if *prune {
		var total, pruned, preg, pbit, pdue int
		for _, r := range st.Results {
			if r.Target != "RF" {
				continue
			}
			total += r.Faults
			pruned += r.Counts.Pruned
			preg += r.Counts.PrunedReg
			pbit += r.Counts.PrunedBit
			pdue += r.Counts.PrunedDUE
		}
		if total > 0 {
			fmt.Printf("pruner: %d/%d RF injections proven statically (%.1f%%): %d register-granular + %d bit-granular Masked, %d crash-certain DUE\n",
				pruned, total, 100*float64(pruned)/float64(total), preg, pbit, pdue)
		}
	}

	fmt.Printf("wrote %s and %s\n", figPath, csvPath)

	// Quarantined units or cells, and unexpected simulator panics, mean
	// the harness itself misbehaved; surface that as a failing exit, once
	// every output is written, so CI and scripted sweeps notice.
	unexpected := 0
	for _, r := range st.Results {
		unexpected += r.Counts.Unexpected
	}
	if unexpected > 0 {
		fmt.Fprintf(os.Stderr, "error: %d injections hit unexpected simulator panics (see the anomalies table in figures.txt)\n", unexpected)
	}
	if len(st.Failed) > 0 {
		fmt.Fprintf(os.Stderr, "error: %d units/cells quarantined (see the failures table in figures.txt)\n", len(st.Failed))
	}
	if unexpected > 0 || len(st.Failed) > 0 {
		stopProfiles()
		os.Exit(1) //lint:exit process boundary: non-zero verdict for quarantined units or cells and unexpected simulator panics
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1) //lint:exit process boundary: the CLI's fatal-error helper
}
