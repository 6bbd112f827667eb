// Command sevanalyze runs the binary-level ACE/liveness analyzer over
// study binaries: it reconstructs each binary's control-flow graph,
// computes per-instruction register liveness, checks binary
// invariants, and (with -bounds) runs the fault-free simulation to
// derive the static lower bound on the Masked rate / upper bound on the
// AVF of the physical register file — the numbers a -prune injection
// campaign realizes without simulating.
//
// Usage:
//
//	sevanalyze                                  # all 32 a15 binaries: invariants + bounds
//	sevanalyze -march a72 -bounds=false         # static-only pass, no simulation
//	sevanalyze -bench qsort -O O2 -dump cfg     # CFG of one binary
//	sevanalyze -bench sha -O O3 -dump live      # per-instruction liveness
//	sevanalyze -bench sha -O O3 -dump bits      # bit-granular dead masks
//	sevanalyze -quick -golden cmd/sevanalyze/testdata/bounds_a15.golden
//	                                            # regression-check static bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"sevsim/internal/binanalysis"
	"sevsim/internal/cli"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/isa"
	"sevsim/internal/journal"
	"sevsim/internal/machine"
	"sevsim/internal/report"
	"sevsim/internal/workloads"
)

func main() {
	marchFlag := flag.String("march", "a15", "microarchitecture: a15 or a72")
	benchFlag := flag.String("bench", "", "benchmark name (default: all)")
	levelFlag := flag.String("O", "", "optimization level O0..O3 (default: all)")
	size := flag.Int("size", 0, "benchmark scale (0 = default)")
	quick := flag.Bool("quick", false, "use each benchmark's reduced test scale (fast golden runs, e.g. for -golden in CI)")
	bounds := flag.Bool("bounds", true, "run golden simulations and report static Masked/AVF bounds")
	dump := flag.String("dump", "", "detail dump for a single -bench/-O binary: cfg, live, bits")
	goldenPath := flag.String("golden", "", "compare the static bounds against this golden file and fail on drift")
	update := flag.Bool("update", false, "rewrite the -golden file with the current bounds instead of comparing")
	par := flag.Int("parallel", 0, "concurrent golden runs (0 = GOMAXPROCS)")
	flag.Parse()

	cfg, err := cli.March(*marchFlag)
	if err != nil {
		cli.Fatal(err)
	}

	var benches []workloads.Benchmark
	if *benchFlag == "" {
		benches = workloads.All()
	} else {
		b, err := workloads.ByName(*benchFlag)
		if err != nil {
			cli.Fatal(err)
		}
		benches = []workloads.Benchmark{b}
	}
	levels := compiler.Levels
	if *levelFlag != "" {
		l, err := compiler.ParseLevel(*levelFlag)
		if err != nil {
			cli.Fatal(err)
		}
		levels = []compiler.OptLevel{l}
	}

	if *dump != "" {
		if len(benches) != 1 || len(levels) != 1 {
			cli.Fatal(fmt.Errorf("-dump needs a single binary: give both -bench and -O"))
		}
		prog, a := analyzeOne(cfg, benches[0], levels[0], *size)
		switch *dump {
		case "cfg":
			dumpCFG(prog.Name, a)
		case "live":
			dumpLiveness(a, cfg.CPU.NumArchRegs)
		case "bits":
			dumpBits(a, cfg.CPU.XLEN, cfg.CPU.NumArchRegs)
		default:
			cli.Fatal(fmt.Errorf("unknown -dump %q (use cfg, live, bits)", *dump))
		}
		return
	}

	units := analyzeSuite(cfg, benches, levels, suiteOptions{
		Size: *size, Quick: *quick, Bounds: *bounds, Parallel: cli.Parallelism(*par),
	})

	headers := []string{"benchmark", "level", "words", "blocks", "funcs", "dead-writes", "invariants"}
	if *bounds {
		headers = append(headers, "cycles", "reg Masked>=", "bit Masked>=", "DUE>=", "SDC<=", "static AVF<=")
	}
	rows := [][]string{}
	failed := false
	for _, u := range units {
		if u.err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "error: %s %s: %v\n", u.bench.Name, u.level, u.err)
			continue
		}
		inv := "ok"
		if len(u.violations) > 0 {
			inv = fmt.Sprintf("%d violations", len(u.violations))
		}
		row := []string{u.bench.Name, u.level.String(),
			fmt.Sprint(u.words), fmt.Sprint(u.blocks), fmt.Sprint(u.funcs),
			fmt.Sprint(u.deadWrites), inv}
		if *bounds {
			row = append(row, fmt.Sprint(u.cycles),
				report.Pct(u.bound.RegMaskedLB), report.Pct(u.bound.MaskedLB),
				report.Pct(u.bound.DueLB), report.Pct(u.bound.SDCUpperBound),
				report.Pct(u.bound.AVFUpperBound))
		}
		rows = append(rows, row)
	}
	fmt.Printf("Static ACE analysis: %d binaries on %s\n", len(rows), cfg.Name)
	report.Table(os.Stdout, headers, rows)
	for _, u := range units {
		for _, v := range u.violations {
			fmt.Printf("%s %s: %s\n", u.bench.Name, u.level, v)
		}
	}
	if failed {
		os.Exit(1) //lint:exit process boundary: non-zero verdict when invariant checks fail
	}

	if *goldenPath != "" {
		if !*bounds {
			cli.Fatal(fmt.Errorf("-golden needs -bounds"))
		}
		text := boundsText(cfg.Name, units)
		if *update {
			if err := journal.AtomicWriteFile(*goldenPath, []byte(text)); err != nil {
				cli.Fatal(err)
			}
			fmt.Printf("updated %s\n", *goldenPath)
			return
		}
		want, err := os.ReadFile(*goldenPath)
		if err != nil {
			cli.Fatal(fmt.Errorf("reading golden (run with -update to create it): %w", err))
		}
		if diff := diffLines(string(want), text); diff != "" {
			fmt.Fprintf(os.Stderr, "static bounds drifted from %s:\n%s", *goldenPath, diff)
			fmt.Fprintln(os.Stderr, "if the change is intended and sound, refresh with -update")
			os.Exit(1) //lint:exit process boundary: non-zero verdict on golden-bounds drift
		}
		fmt.Printf("static bounds match %s\n", *goldenPath)
	}
}

// unit is one (bench, level) analysis result.
type unit struct {
	bench workloads.Benchmark
	level compiler.OptLevel

	words      int
	blocks     int
	funcs      int
	deadWrites int
	violations []binanalysis.Violation
	bound      binanalysis.RFBound
	cycles     uint64
	err        error
}

type suiteOptions struct {
	Size     int  // explicit scale override (0 = benchmark default)
	Quick    bool // use each benchmark's TestSize
	Bounds   bool // run golden simulations for static bounds
	Parallel int
}

// analyzeSuite compiles and analyzes every (bench, level) pair with
// bounded fan-out: compiles are cheap but each Bounds unit runs a full
// golden simulation.
func analyzeSuite(cfg machine.Config, benches []workloads.Benchmark, levels []compiler.OptLevel, opts suiteOptions) []*unit {
	var units []*unit
	for _, b := range benches {
		for _, l := range levels {
			units = append(units, &unit{bench: b, level: l})
		}
	}
	sem := make(chan struct{}, opts.Parallel)
	var wg sync.WaitGroup
	for _, u := range units {
		wg.Add(1)
		go func(u *unit) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sz := u.bench.DefaultSize
			if opts.Quick {
				sz = u.bench.TestSize
			}
			if opts.Size > 0 {
				sz = opts.Size
			}
			prog, err := compiler.Compile(u.bench.Source(sz), u.bench.Name, u.level, compiler.TargetFor(cfg))
			if err != nil {
				u.err = err
				return
			}
			a, err := binanalysis.AnalyzeWords(prog.Code)
			if err != nil {
				u.err = err
				return
			}
			u.words = len(prog.Code)
			u.blocks = len(a.CFG.Blocks)
			u.funcs = len(a.CFG.FuncEntries)
			for i, in := range a.CFG.Code {
				if d := in.DestReg(); d != 0xff && !a.Live[i+1].Has(d) {
					u.deadWrites++
				}
			}
			u.violations = binanalysis.CheckInvariants(a)
			if opts.Bounds {
				exp, err := faultinj.NewExperimentOptions(cfg, prog, faultinj.Options{Traced: true})
				if err != nil {
					u.err = err
					return
				}
				pr, err := binanalysis.NewDUEPruner(a, exp)
				if err != nil {
					u.err = err
					return
				}
				u.bound = pr.Bound()
				u.cycles = exp.GoldenCycles
			}
		}(u)
	}
	wg.Wait()
	return units
}

// boundsText renders the static bounds in the canonical golden-file
// format: one line per unit, fully deterministic (fixed order, fixed
// precision), so any transfer-function change that moves a bound —
// loosening precision or unsoundly tightening it — shows up as a
// byte-level diff.
func boundsText(march string, units []*unit) string {
	var b strings.Builder
	for _, u := range units {
		if u.err != nil {
			continue
		}
		fmt.Fprintf(&b, "%s %s %s cycles=%d reg_masked_lb=%.9f bit_masked_lb=%.9f due_lb=%.9f sdc_ub=%.9f reg_prunable=%d bit_prunable=%d due_prunable=%d space=%d\n",
			march, u.bench.Name, u.level,
			u.cycles, u.bound.RegMaskedLB, u.bound.MaskedLB,
			u.bound.DueLB, u.bound.SDCUpperBound,
			u.bound.RegPrunableBits, u.bound.PrunableBits, u.bound.DuePrunableBits, u.bound.SpaceBits)
	}
	return b.String()
}

// diffLines reports the first divergent lines between two texts, or ""
// when identical.
func diffLines(want, got string) string {
	if want == got {
		return ""
	}
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var b strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	shown := 0
	for i := 0; i < n && shown < 8; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "  line %d:\n    golden: %s\n    got:    %s\n", i+1, w, g)
			shown++
		}
	}
	return b.String()
}

func analyzeOne(cfg machine.Config, b workloads.Benchmark, l compiler.OptLevel, size int) (*machine.Program, *binanalysis.Analysis) {
	if size <= 0 {
		size = b.DefaultSize
	}
	prog, err := compiler.Compile(b.Source(size), b.Name, l, compiler.TargetFor(cfg))
	if err != nil {
		cli.Fatal(err)
	}
	a, err := binanalysis.AnalyzeWords(prog.Code)
	if err != nil {
		cli.Fatal(err)
	}
	return prog, a
}

func dumpCFG(name string, a *binanalysis.Analysis) {
	g := a.CFG
	fmt.Printf("%s: %d instructions, %d blocks, %d function entries, %d return points\n",
		name, len(g.Code), len(g.Blocks), len(g.FuncEntries), len(g.RetPoints))
	for bi, b := range g.Blocks {
		attr := ""
		if b.IsRet {
			attr = " (return)"
		}
		if b.Unknown {
			attr = " (indirect: successors unknown)"
		}
		fmt.Printf("\nblock %d [%d,%d) -> %v%s\n", bi, b.Start, b.End, b.Succs, attr)
		for i := b.Start; i < b.End; i++ {
			fmt.Printf("  %4d  %s\n", i, g.Code[i])
		}
	}
}

// dumpLiveness prints, for each instruction, the registers live and
// dead right after it: program point i+1.
func dumpLiveness(a *binanalysis.Analysis, nregs int) {
	for i, in := range a.CFG.Code {
		fmt.Printf("%4d  %-28s live-out %-30s dead %s\n",
			i, in.String(), a.Live[i+1], a.Dead(i+1, nregs))
	}
}

// dumpBits prints the bit-granular dead masks: for each instruction,
// the fully dead registers (as in -dump live) plus every live register
// that still has individually dead bits, with the dead-bit mask in
// hex. These masks are exactly what the pruner consults per injection.
func dumpBits(a *binanalysis.Analysis, xlen, nregs int) {
	b := a.Bits(xlen)
	hexDigits := (xlen + 3) / 4
	for i, in := range a.CFG.Code {
		var parts []string
		for r := uint8(1); int(r) < nregs; r++ {
			if !a.Live[i+1].Has(r) {
				continue // whole register dead; shown in the dead set
			}
			if db := b.DeadBits(i+1, r); db != 0 {
				parts = append(parts, fmt.Sprintf("%s:%0*x", isa.RegName(r), hexDigits, db))
			}
		}
		fmt.Printf("%4d  %-28s dead %-24s dead-bits %s\n",
			i, in.String(), a.Dead(i+1, nregs), strings.Join(parts, " "))
	}
}
