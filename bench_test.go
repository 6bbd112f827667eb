// Package sevsim's root benchmark harness regenerates every table and
// figure of the paper. Each BenchmarkFigXX / BenchmarkTableX function
// (a) prints the corresponding figure's rows from a shared scaled-down
// study, and (b) times a representative unit of the underlying work
// (one golden run, one fault injection, one aggregation) so ns/op is
// meaningful.
//
// Environment knobs:
//
//	SEV_FAULTS  faults per campaign cell (default 8 so the full harness fits a single-core laptop run; paper scale 2000)
//	SEV_SEED    master sampling seed (default 2021)
//
// The full-scale campaign is cmd/sevrepro.
package sevsim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"sevsim/internal/artcache"
	"sevsim/internal/binanalysis"
	"sevsim/internal/campaign"
	"sevsim/internal/checkpoint"
	"sevsim/internal/compiler"
	"sevsim/internal/core"
	"sevsim/internal/cpu"
	"sevsim/internal/faultinj"
	"sevsim/internal/lang"
	"sevsim/internal/machine"
	"sevsim/internal/report"
	"sevsim/internal/workloads"
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

var (
	studyOnce sync.Once
	studyVal  *core.Study
	studyErr  error
)

// theStudy runs (once) the scaled-down full study behind every figure.
func theStudy(b *testing.B) *core.Study {
	b.Helper()
	studyOnce.Do(func() {
		spec := core.DefaultSpec(envInt("SEV_FAULTS", 8))
		spec.Seed = int64(envInt("SEV_SEED", 2021))
		fmt.Printf("[study] running: 2 microarchitectures x 8 benchmarks x 4 levels x 15 fields x %d faults\n",
			spec.Faults)
		studyVal, studyErr = spec.Run()
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyVal
}

var printedFigures sync.Map

// printFigure renders a figure once per process.
func printFigure(key string, render func()) {
	if _, loaded := printedFigures.LoadOrStore(key, true); !loaded {
		render()
	}
}

// injectionExperiment builds a reusable experiment for per-iteration
// injection timing.
var (
	expOnce sync.Once
	expVal  *faultinj.Experiment
)

func injectionUnit(b *testing.B) *faultinj.Experiment {
	b.Helper()
	expOnce.Do(func() {
		bench, _ := workloads.ByName("qsort")
		cfg := machine.CortexA15Like()
		prog, err := compiler.Compile(bench.Source(bench.TestSize), "qsort", compiler.O2,
			compiler.Target{XLEN: 32, NumArchRegs: 16})
		if err != nil {
			panic(err)
		}
		expVal, err = faultinj.NewExperiment(cfg, prog)
		if err != nil {
			panic(err)
		}
	})
	return expVal
}

// benchInjections times single end-to-end injections into a target
// after printing the figure.
func benchInjections(b *testing.B, target string) {
	exp := injectionUnit(b)
	t, ok := faultinj.TargetByName(target)
	if !ok {
		b.Fatalf("unknown target %s", target)
	}
	inj, err := exp.Sample(t, 256, 99)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Inject(t, inj[i%len(inj)])
	}
}

func BenchmarkTable1_Configs(b *testing.B) {
	printFigure("table1", func() { report.TableI(os.Stdout) })
	// Unit: constructing one full machine (core + hierarchy).
	bench, _ := workloads.ByName("qsort")
	prog, err := compiler.Compile(bench.Source(bench.TestSize), "qsort", compiler.O1,
		compiler.Target{XLEN: 64, NumArchRegs: 32})
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.CortexA72Like()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine.New(cfg, prog)
	}
}

func BenchmarkFig01_RelativePerformance(b *testing.B) {
	st := theStudy(b)
	printFigure("fig1", func() { report.Fig1Performance(os.Stdout, st) })
	// Unit: one golden run of qsort at O2 on the A72-like machine.
	bench, _ := workloads.ByName("qsort")
	prog, err := compiler.Compile(bench.Source(bench.TestSize), "qsort", compiler.O2,
		compiler.Target{XLEN: 64, NumArchRegs: 32})
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.CortexA72Like()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res := machine.New(cfg, prog).Run(1 << 30)
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

func BenchmarkFig02_L1I_AVF(b *testing.B) {
	st := theStudy(b)
	printFigure("fig2", func() {
		report.FigAVF(os.Stdout, st, "Figure 2: AVF of the L1 instruction cache (data field)", "L1I.data")
		report.FigAVF(os.Stdout, st, "Figure 2 (cont.): AVF of the L1 instruction cache (tag field)", "L1I.tag")
	})
	benchInjections(b, "L1I.data")
}

func BenchmarkFig03_L1D_AVF(b *testing.B) {
	st := theStudy(b)
	printFigure("fig3", func() {
		report.FigAVF(os.Stdout, st, "Figure 3: AVF of the L1 data cache (data field)", "L1D.data")
		report.FigAVF(os.Stdout, st, "Figure 3 (cont.): AVF of the L1 data cache (tag field)", "L1D.tag")
	})
	benchInjections(b, "L1D.data")
}

func BenchmarkFig04_L2_AVF(b *testing.B) {
	st := theStudy(b)
	printFigure("fig4", func() {
		report.FigAVF(os.Stdout, st, "Figure 4: AVF of the L2 cache (data field)", "L2.data")
		report.FigAVF(os.Stdout, st, "Figure 4 (cont.): AVF of the L2 cache (tag field)", "L2.tag")
	})
	benchInjections(b, "L2.data")
}

func BenchmarkFig05_RF_AVF(b *testing.B) {
	st := theStudy(b)
	printFigure("fig5", func() {
		report.FigAVF(os.Stdout, st, "Figure 5: AVF of the physical register file", "RF")
	})
	benchInjections(b, "RF")
}

func BenchmarkFig06_LQSQ_AVF(b *testing.B) {
	st := theStudy(b)
	printFigure("fig6", func() {
		report.FigAVF(os.Stdout, st, "Figure 6: AVF of the load queue", "LQ")
		report.FigAVF(os.Stdout, st, "Figure 6 (cont.): AVF of the store queue", "SQ")
	})
	benchInjections(b, "LQ")
}

func BenchmarkFig07_IQ_AVF(b *testing.B) {
	st := theStudy(b)
	printFigure("fig7", func() {
		report.FigAVF(os.Stdout, st, "Figure 7: AVF of the issue queue (source field)", "IQ.src")
		report.FigAVF(os.Stdout, st, "Figure 7 (cont.): AVF of the issue queue (destination field)", "IQ.dst")
	})
	benchInjections(b, "IQ.src")
}

func BenchmarkFig08_ROB_AVF(b *testing.B) {
	st := theStudy(b)
	printFigure("fig8", func() {
		report.FigAVF(os.Stdout, st, "Figure 8: AVF of the reorder buffer (PC field)", "ROB.pc")
		report.FigAVF(os.Stdout, st, "Figure 8 (cont.): AVF of the reorder buffer (dest field)", "ROB.dest")
		report.FigAVF(os.Stdout, st, "Figure 8 (cont.): AVF of the reorder buffer (old-mapping field)", "ROB.old")
		report.FigAVF(os.Stdout, st, "Figure 8 (cont.): AVF of the reorder buffer (control field)", "ROB.ctrl")
	})
	benchInjections(b, "ROB.pc")
}

func BenchmarkFig09_WAVF_Delta(b *testing.B) {
	st := theStudy(b)
	printFigure("fig9", func() { report.Fig9Delta(os.Stdout, st) })
	// Unit: the weighted-AVF aggregation across benchmarks.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, target := range st.TargetNames {
			_ = st.AcrossBenches(st.MachineNames[0], "O2", target)
		}
	}
}

func BenchmarkFig10_FIT(b *testing.B) {
	st := theStudy(b)
	printFigure("fig10", func() { report.Fig10FIT(os.Stdout, st) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.CellStructures(st.MachineNames[0], st.BenchNames[0], "O2")
	}
}

func BenchmarkFig11_FPE(b *testing.B) {
	st := theStudy(b)
	printFigure("fig11", func() { report.Fig11FPE(os.Stdout, st) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = st.Golden(st.MachineNames[0], st.BenchNames[0], "O2")
	}
}

func BenchmarkFig12_ECC_FIT(b *testing.B) {
	st := theStudy(b)
	printFigure("fig12", func() { report.Fig12ECC(os.Stdout, st) })
	benchInjections(b, "SQ")
}

// BenchmarkStudyScheduler is the end-to-end benchmark for the
// study-level parallel execution engine: it runs the same scaled-down
// study serially (Parallelism: 1) and on the shared worker pool
// (Parallelism: GOMAXPROCS), verifies the saved results are
// byte-identical, and reports the wall-clock speedup. On multicore
// hardware the pooled run is expected to be >= 2x faster.
func BenchmarkStudyScheduler(b *testing.B) {
	schedSpec := func(par int) core.Spec {
		qsort, _ := workloads.ByName("qsort")
		gsm, _ := workloads.ByName("gsm")
		rf, _ := faultinj.TargetByName("RF")
		robPC, _ := faultinj.TargetByName("ROB.pc")
		l1d, _ := faultinj.TargetByName("L1D.data")
		return core.Spec{
			Machines:    []machine.Config{machine.CortexA15Like(), machine.CortexA72Like()},
			Benchmarks:  []workloads.Benchmark{qsort, gsm},
			Levels:      []compiler.OptLevel{compiler.O0, compiler.O2},
			Targets:     []faultinj.Target{rf, robPC, l1d},
			Faults:      envInt("SEV_FAULTS", 8) * 4,
			Seed:        2021,
			Size:        func(bm workloads.Benchmark) int { return bm.TestSize },
			Parallelism: par,
		}
	}
	printFigure("study-scheduler", func() {
		t0 := time.Now()
		serial, err := schedSpec(1).Run()
		if err != nil {
			b.Fatal(err)
		}
		serialD := time.Since(t0)
		t0 = time.Now()
		pooled, err := schedSpec(runtime.GOMAXPROCS(0)).Run()
		if err != nil {
			b.Fatal(err)
		}
		pooledD := time.Since(t0)
		sj, _ := json.Marshal(serial)
		pj, _ := json.Marshal(pooled)
		if !bytes.Equal(sj, pj) {
			b.Fatal("parallel study results differ from serial run")
		}
		fmt.Printf("\nStudy scheduler: %d cells, parallelism 1: %v, parallelism %d: %v (%.2fx, byte-identical results)\n",
			len(serial.Results), serialD.Round(time.Millisecond),
			runtime.GOMAXPROCS(0), pooledD.Round(time.Millisecond),
			float64(serialD)/float64(pooledD))
	})
	// Unit: one pooled campaign cell on a shared worker pool.
	exp := injectionUnit(b)
	rf, _ := faultinj.TargetByName("RF")
	pool := campaign.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaign.Run(exp, rf, campaign.Options{Faults: 8, Seed: int64(i), Pool: pool})
	}
}

// BenchmarkInjectionCell quantifies the injection fast path on a
// representative campaign cell (qsort, O2, A15-like). The cell
// sub-benchmark runs the cell's campaigns with the fast path fully off
// (fresh machine per injection, simulated from cycle 0) and fully on
// (checkpoint fast-forward, dead-state verdicts, early-convergence
// exit), preparation included, asserts the classification counts are
// identical, and reports the fastest of each over the b.N iterations:
//
//	reference-ms, fast-ms   the cell's wall clock, fast path off and on
//	fast/reference          their ratio
//
// The two times are taken back to back on the same host, so the ratio
// moves with its jitter, not with its speed; cmd/benchgate holds it
// (-unit) to the absolute limit in BENCH_layout.json's trajectory. The
// unit sub-benchmark runs all fifteen targets of the same unit as one
// campaign (campaign.RunUnit), 64 faults each whatever SEV_FAULTS says,
// and reports
//
//	replay-cycles/injection  golden cycles simulated from a restore to
//	                         the flip, per injection of the unit: a count,
//	                         identical on every host and worker count
//	unit-ms                  the campaign's wall clock, fastest of b.N
//
// cmd/benchgate holds the count to the value in BENCH_layout.json's
// trajectory. The reference and fastpath sub-benchmarks time single
// injections under both configurations, so `-benchmem` shows what one
// injection allocates.
func BenchmarkInjectionCell(b *testing.B) {
	bench, _ := workloads.ByName("qsort")
	prog, err := compiler.Compile(bench.Source(bench.TestSize), "qsort", compiler.O2,
		compiler.Target{XLEN: 32, NumArchRegs: 16})
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.CortexA15Like()
	newExp := func(opts faultinj.Options) *faultinj.Experiment {
		exp, err := faultinj.NewExperimentOptions(cfg, prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		return exp
	}
	refOpts := faultinj.Options{Checkpoints: -1, NoFastExit: true}

	b.Run("cell", func(b *testing.B) {
		faults := envInt("SEV_FAULTS", 8) * 32
		var targets []faultinj.Target
		for _, name := range []string{"RF", "L1D.data", "ROB.pc"} {
			t, _ := faultinj.TargetByName(name)
			targets = append(targets, t)
		}
		pool := campaign.NewPool(runtime.GOMAXPROCS(0))
		defer pool.Close()
		// Each measurement includes experiment preparation, so the
		// snapshots the fast path adds to it are charged against it.
		measure := func(opts faultinj.Options) (time.Duration, []campaign.Counts) {
			t0 := time.Now()
			exp := newExp(opts)
			var counts []campaign.Counts
			for _, t := range targets {
				r := campaign.Run(exp, t, campaign.Options{Faults: faults, Seed: 2021, Pool: pool})
				counts = append(counts, r.Counts)
			}
			return time.Since(t0), counts
		}
		var refD, fastD time.Duration
		for i := 0; i < b.N; i++ {
			rd, refC := measure(refOpts)
			fd, fastC := measure(faultinj.Options{})
			for j := range refC {
				if refC[j] != fastC[j] {
					b.Fatalf("fast path classified %s differently: %+v vs %+v",
						targets[j].Name(), fastC[j], refC[j])
				}
			}
			if i == 0 || rd < refD {
				refD = rd
			}
			if i == 0 || fd < fastD {
				fastD = fd
			}
		}
		printFigure("injection-cell", func() {
			fmt.Printf("\nInjection cell (qsort, O2, A15-like; %d targets x %d faults): reference %v, fast path %v (%.2fx, identical classification)\n",
				len(targets), faults, refD.Round(time.Millisecond), fastD.Round(time.Millisecond),
				float64(refD)/float64(fastD))
		})
		b.ReportMetric(float64(refD.Microseconds())/1e3, "reference-ms")
		b.ReportMetric(float64(fastD.Microseconds())/1e3, "fast-ms")
		b.ReportMetric(float64(fastD)/float64(refD), "fast/reference")
	})

	b.Run("unit", func(b *testing.B) {
		const faults = 64
		var cells []campaign.Cell
		for i, t := range faultinj.Targets() {
			cells = append(cells, campaign.Cell{Target: t, Seed: 2021 + int64(i)})
		}
		pool := campaign.NewPool(runtime.GOMAXPROCS(0))
		defer pool.Close()
		var best time.Duration
		var replay uint64
		for i := 0; i < b.N; i++ {
			exp := newExp(faultinj.Options{})
			t0 := time.Now()
			campaign.RunUnit(exp, cells, campaign.Options{Faults: faults, Pool: pool}, func(_ int, _ campaign.Result, err error) {
				if err != nil {
					b.Error(err)
				}
			})
			if d := time.Since(t0); i == 0 || d < best {
				best = d
			}
			replay = exp.FastPathStats().ReplayCycles
			exp.Close()
		}
		b.ReportMetric(float64(replay)/float64(len(cells)*faults), "replay-cycles/injection")
		b.ReportMetric(float64(best.Microseconds())/1e3, "unit-ms")
	})

	// Unit: one end-to-end RF injection, reference vs fast path.
	rf, _ := faultinj.TargetByName("RF")
	ref := newExp(refOpts)
	fast := newExp(faultinj.Options{})
	inj, err := ref.Sample(rf, 256, 99)
	if err != nil {
		b.Fatal(err)
	}
	for _, sub := range []struct {
		name string
		exp  *faultinj.Experiment
	}{{"reference", ref}, {"fastpath", fast}} {
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sub.exp.Inject(rf, inj[i%len(inj)])
			}
		})
	}
}

// BenchmarkCheckpointLadder measures what a rung of the golden
// checkpoint ladder costs at the default budget. One iteration records
// the injection cell's golden run (qsort, O2, A15-like) with a snapshot
// at each of the DefaultCheckpoints cycles, then walks a scratch machine
// through that many cross-base restores — each from a different rung
// than the last, after a short run, the shape of an injection that hops
// checkpoints. Only the Snapshot and Restore calls themselves are timed:
//
//	ns/snapshot   one machine.Snapshot during the recording run
//	ns/restore    one machine.Restore onto a different rung
//	B/snapshot    Stream.ResidentBytes / rungs: resident memory per rung,
//	              shared cache chunks and memory pages counted once
//
// ns/op is the whole iteration and mostly simulation; cmd/benchgate
// gates on ns/snapshot (-unit) against BENCH_layout.json.
func BenchmarkCheckpointLadder(b *testing.B) {
	bench, _ := workloads.ByName("qsort")
	prog, err := compiler.Compile(bench.Source(bench.TestSize), "qsort", compiler.O2,
		compiler.Target{XLEN: 32, NumArchRegs: 16})
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.CortexA15Like()
	golden := machine.New(cfg, prog).Run(1 << 40)
	if golden.Outcome != machine.OutcomeOK {
		b.Fatalf("golden run ended %s", golden.Outcome)
	}
	points := checkpoint.Cycles(golden.Cycles, faultinj.DefaultCheckpoints)

	var snapT, restoreT time.Duration
	var snaps, restores, resident int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stream, res := checkpoint.Record(machine.New(cfg, prog), 1<<40, points)
		if res.Cycles != golden.Cycles {
			b.Fatalf("recording run took %d cycles, golden %d", res.Cycles, golden.Cycles)
		}
		resident += stream.ResidentBytes()
		// Record's own snapshots are inside its simulation loop; time the
		// same ones on a second machine walking the same run.
		m := machine.New(cfg, prog)
		hooks := make([]machine.Hook, len(points))
		for j, c := range points {
			hooks[j] = machine.Hook{At: c, Fn: func(mm *machine.Machine) {
				t0 := time.Now()
				sn := mm.Snapshot()
				snapT += time.Since(t0)
				snaps++
				sn.Release()
			}}
		}
		m.Run(1<<40, hooks...)

		rungs := stream.Snaps()
		for j := range rungs {
			sn := rungs[(j*7+3)%len(rungs)] // 7 is coprime to any power-of-two budget: every rung once, never the same twice running
			t0 := time.Now()
			m.Restore(sn)
			restoreT += time.Since(t0)
			restores++
			m.Run(sn.Cycle + 200)
		}
		stream.Release()
	}
	b.ReportMetric(float64(snapT.Nanoseconds())/float64(snaps), "ns/snapshot")
	b.ReportMetric(float64(restoreT.Nanoseconds())/float64(restores), "ns/restore")
	b.ReportMetric(float64(resident)/float64(b.N*len(points)), "B/snapshot")
}

// prepUnit is one (microarchitecture, binary) pair to simulate.
type prepUnit struct {
	cfg  machine.Config
	prog *machine.Program
}

// prepSweepQsort compiles qsort at O2 and twice its evaluation size —
// the size sevbench's prep_sweep runs — for both microarchitectures.
func prepSweepQsort(b *testing.B) []prepUnit {
	bench, _ := workloads.ByName("qsort")
	var units []prepUnit
	for _, cfg := range machine.Configs() {
		prog, err := compiler.Compile(bench.Source(2*bench.DefaultSize), "qsort", compiler.O2,
			compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
		if err != nil {
			b.Fatal(err)
		}
		units = append(units, prepUnit{cfg, prog})
	}
	return units
}

// BenchmarkPrepUnit measures what preparing a unit costs over the
// golden run it cannot avoid. One iteration takes qsort at O2 and twice
// its evaluation size (the size sevbench's prep_sweep runs) on both
// microarchitectures and, for each, times a
// plain golden run (machine.New + Run) and a full preparation
// (faultinj.NewExperimentOptions at the default checkpoint budget),
// once with the commit trace and once without, back to back, then the
// static RF bound over the traced preparation's commit stream
// (binanalysis.DUEPruner.Bound, the analysis and the pruner built
// outside the clock), and keeps the fastest of each over the b.N
// iterations:
//
//	golden-ns/unit, prep-ns/unit                 untraced
//	traced-golden-ns/unit, traced-prep-ns/unit   with the commit hook
//	bound-ns/unit                                one Bound walk
//	prep/golden, traced-prep/traced-golden       the ratios
//	bound/golden                                 Bound over the untraced golden run
//	held-B/unit                                  what a prune unit holds beside its ladder
//	cache-B/unit                                 what a golden-run machine's caches hold
//
// Preparation records the checkpoint ladder during the golden run, so
// the first two ratios sit a few percent above 1; a second simulated
// pass would put them at 2. Bound visits every commit interval of the
// trace and must stay a small fraction of the run that produced it: it
// looks up what a static program point contributes once per point, not
// once per interval. held-B/unit is a count, the same on every host: the
// ResidentBytes of the traced preparation's commit trace, of its
// pruner's tables and of the analysis the pruner holds. cache-B/unit is
// a count too: the ResidentBytes of the three caches of the untraced
// golden run's machine when it halts, the chunk tables and the chunks
// the run wrote. cmd/benchgate holds prep/golden, bound/golden,
// held-B/unit and cache-B/unit (-unit) to the limits in
// BENCH_layout.json's trajectory.
func BenchmarkPrepUnit(b *testing.B) {
	units := prepSweepQsort(b)
	analyses := make([]*binanalysis.Analysis, len(units))
	for j, u := range units {
		a, err := binanalysis.AnalyzeWords(u.prog.Code)
		if err != nil {
			b.Fatal(err)
		}
		analyses[j] = a
	}
	// Each timed call starts from a collected heap, so none pays for the
	// machine its predecessor left behind. cache is what the machine's
	// caches hold when it halts.
	golden := func(u prepUnit, traced bool) (d time.Duration, cache int) {
		runtime.GC()
		t0 := time.Now()
		m := machine.New(u.cfg, u.prog)
		if traced {
			trace := make([]cpu.CommitEvent, 0, 1024)
			m.Core.SetCommitHook(func(ev cpu.CommitEvent) { trace = append(trace, ev) })
		}
		if res := m.Run(1 << 40); res.Outcome != machine.OutcomeOK {
			b.Fatalf("golden run ended %s", res.Outcome)
		}
		d = time.Since(t0)
		return d, m.L1I.ResidentBytes() + m.L1D.ResidentBytes() + m.L2.ResidentBytes()
	}
	// prep times one preparation; with an analysis it is traced, the
	// second duration is one Bound walk over its commit stream, and held
	// is what the unit's trace, pruner and analysis hold.
	prep := func(u prepUnit, a *binanalysis.Analysis) (prep, bound time.Duration, held int) {
		runtime.GC()
		t0 := time.Now()
		exp, err := faultinj.NewExperimentOptions(u.cfg, u.prog, faultinj.Options{Traced: a != nil})
		prep = time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		defer exp.Close()
		if a == nil {
			return prep, 0, 0
		}
		pruner, err := binanalysis.NewDUEPruner(a, exp)
		if err != nil {
			b.Fatal(err)
		}
		t0 = time.Now()
		pruner.Bound()
		return prep, time.Since(t0), exp.Trace.ResidentBytes() + pruner.ResidentBytes() + a.ResidentBytes()
	}
	// Fastest of b.N per unit and kind: this host slows memory-heavy
	// code for minutes at a time, and a sum would carry whichever phase
	// each call happened to land in into the ratio.
	fastest := make([][5]time.Duration, len(units))
	held, cache := make([]int, len(units)), make([]int, len(units))
	for i := 0; i < b.N; i++ {
		for j, u := range units {
			untraced, _, _ := prep(u, nil)
			tracedGolden, _ := golden(u, true)
			traced, bound, h := prep(u, analyses[j])
			held[j] = h
			plain, c := golden(u, false)
			cache[j] = c
			for kind, d := range [5]time.Duration{plain, untraced, tracedGolden, traced, bound} {
				if i == 0 || d < fastest[j][kind] {
					fastest[j][kind] = d
				}
			}
		}
	}
	var sum [5]float64
	heldSum, cacheSum := 0, 0
	for j, f := range fastest {
		for kind, d := range f {
			sum[kind] += float64(d.Nanoseconds())
		}
		heldSum += held[j]
		cacheSum += cache[j]
	}
	n := float64(len(units))
	b.ReportMetric(sum[0]/n, "golden-ns/unit")
	b.ReportMetric(sum[1]/n, "prep-ns/unit")
	b.ReportMetric(sum[2]/n, "traced-golden-ns/unit")
	b.ReportMetric(sum[3]/n, "traced-prep-ns/unit")
	b.ReportMetric(sum[4]/n, "bound-ns/unit")
	b.ReportMetric(sum[1]/sum[0], "prep/golden")
	b.ReportMetric(sum[3]/sum[2], "traced-prep/traced-golden")
	b.ReportMetric(sum[4]/sum[0], "bound/golden")
	b.ReportMetric(float64(heldSum)/n, "held-B/unit")
	b.ReportMetric(float64(cacheSum)/n, "cache-B/unit")
}

// BenchmarkGoldenRun measures the simulator's own speed, the floor under
// every sevbench workload. One iteration takes qsort at O2 and twice its
// evaluation size on both microarchitectures and simulates each golden
// run twice through the product path with checkpointing off
// (faultinj.NewExperimentOptions with a negative budget: machine.New,
// one run, nothing else), once without and once with the commit trace,
// back to back, each from a collected heap, and keeps the fastest of
// each over the b.N iterations:
//
//	Mcycles/s, traced-Mcycles/s   simulated cycles per wall second, summed over both units
//	traced/untraced               traced time over untraced time
//
// cmd/benchgate holds traced/untraced (-unit) to the absolute limit in
// BENCH_layout.json's trajectory: the trace is one event per committed
// instruction and must stay a small tax on the run that produces it.
func BenchmarkGoldenRun(b *testing.B) {
	units := prepSweepQsort(b)
	var cycles uint64
	golden := func(u prepUnit, traced bool) time.Duration {
		runtime.GC()
		t0 := time.Now()
		exp, err := faultinj.NewExperimentOptions(u.cfg, u.prog, faultinj.Options{Traced: traced, Checkpoints: -1})
		d := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		if traced && uint64(exp.Trace.Len()) != exp.GoldenStats.Stats.Committed {
			b.Fatalf("trace holds %d events, run committed %d", exp.Trace.Len(), exp.GoldenStats.Stats.Committed)
		}
		cycles = exp.GoldenCycles
		exp.Close()
		return d
	}
	// Fastest of b.N per unit and kind, as in BenchmarkPrepUnit.
	fastest := make([][2]time.Duration, len(units))
	var total uint64
	for i := 0; i < b.N; i++ {
		total = 0
		for j, u := range units {
			for kind, d := range [2]time.Duration{golden(u, false), golden(u, true)} {
				if i == 0 || d < fastest[j][kind] {
					fastest[j][kind] = d
				}
			}
			total += cycles
		}
	}
	var sum [2]float64
	for _, f := range fastest {
		sum[0] += f[0].Seconds()
		sum[1] += f[1].Seconds()
	}
	b.ReportMetric(float64(total)/sum[0]/1e6, "Mcycles/s")
	b.ReportMetric(float64(total)/sum[1]/1e6, "traced-Mcycles/s")
	b.ReportMetric(sum[1]/sum[0], "traced/untraced")
}

// BenchmarkPrunedStudy quantifies the static injection pruner: it runs
// the same RF study with Spec.Prune off and on, asserts the
// classification is identical, and reports the wall-clock saving plus
// the fraction of injections proven Masked without simulation.
func BenchmarkPrunedStudy(b *testing.B) {
	pruneSpec := func(prune bool) core.Spec {
		qsort, _ := workloads.ByName("qsort")
		gsm, _ := workloads.ByName("gsm")
		rf, _ := faultinj.TargetByName("RF")
		return core.Spec{
			Machines:    []machine.Config{machine.CortexA15Like()},
			Benchmarks:  []workloads.Benchmark{qsort, gsm},
			Levels:      compiler.Levels,
			Targets:     []faultinj.Target{rf},
			Faults:      envInt("SEV_FAULTS", 8) * 16,
			Seed:        2021,
			Size:        func(bm workloads.Benchmark) int { return bm.TestSize },
			Parallelism: runtime.GOMAXPROCS(0),
			Prune:       prune,
		}
	}
	printFigure("pruned-study", func() {
		t0 := time.Now()
		base, err := pruneSpec(false).Run()
		if err != nil {
			b.Fatal(err)
		}
		baseD := time.Since(t0)
		t0 = time.Now()
		pruned, err := pruneSpec(true).Run()
		if err != nil {
			b.Fatal(err)
		}
		prunedD := time.Since(t0)
		total, skipped := 0, 0
		for i := range base.Results {
			bc, pc := base.Results[i].Counts, pruned.Results[i].Counts
			skipped += pc.Pruned
			total += pruned.Faults
			pc.Pruned = 0 // the only field allowed to differ
			if bc != pc {
				b.Fatalf("pruned study classified cell %d differently: %+v vs %+v",
					i, base.Results[i].Counts, pruned.Results[i].Counts)
			}
		}
		fmt.Printf("\nPruned study: %d cells x %d faults: unpruned %v, pruned %v (%.2fx); %d/%d injections (%.1f%%) proven Masked statically\n",
			len(base.Results), pruned.Faults,
			baseD.Round(time.Millisecond), prunedD.Round(time.Millisecond),
			float64(baseD)/float64(prunedD),
			skipped, total, 100*float64(skipped)/float64(total))
	})
	// Unit: one pruned RF campaign cell (traced golden run amortized).
	bench, _ := workloads.ByName("qsort")
	prog, err := compiler.Compile(bench.Source(bench.TestSize), "qsort", compiler.O2,
		compiler.Target{XLEN: 32, NumArchRegs: 16})
	if err != nil {
		b.Fatal(err)
	}
	exp, err := faultinj.NewTracedExperiment(machine.CortexA15Like(), prog)
	if err != nil {
		b.Fatal(err)
	}
	a, err := binanalysis.AnalyzeWords(prog.Code)
	if err != nil {
		b.Fatal(err)
	}
	pruner, err := binanalysis.NewDUEPruner(a, exp)
	if err != nil {
		b.Fatal(err)
	}
	rf, _ := faultinj.TargetByName("RF")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaign.Run(exp, rf, campaign.Options{Faults: 8, Seed: int64(i), Pruner: pruner})
	}
}

// BenchmarkCachedStudy quantifies the prep-artifact cache
// (internal/artcache): the printed figure runs the same small study
// uncached, cold-cached (empty cache directory), and warm-cached
// (second run on the same directory), asserts all three produce
// byte-identical study JSON, and reports the warm-over-cold wall-clock
// speedup. The timed unit prepares one experiment (compile + golden
// run + checkpoint recording vs one cache load) as the direct/warm
// sub-benchmarks that BENCH_cache.json records and CI gates.
func BenchmarkCachedStudy(b *testing.B) {
	cachedSpec := func(c *artcache.Cache) core.Spec {
		qsort, _ := workloads.ByName("qsort")
		gsm, _ := workloads.ByName("gsm")
		rf, _ := faultinj.TargetByName("RF")
		robPC, _ := faultinj.TargetByName("ROB.pc")
		l1d, _ := faultinj.TargetByName("L1D.data")
		return core.Spec{
			Machines:    []machine.Config{machine.CortexA15Like(), machine.CortexA72Like()},
			Benchmarks:  []workloads.Benchmark{qsort, gsm},
			Levels:      []compiler.OptLevel{compiler.O0, compiler.O2},
			Targets:     []faultinj.Target{rf, robPC, l1d},
			Faults:      envInt("SEV_FAULTS", 8),
			Seed:        2021,
			Size:        func(bm workloads.Benchmark) int { return bm.TestSize },
			Parallelism: runtime.GOMAXPROCS(0),
			Cache:       c,
		}
	}
	runStudy := func(c *artcache.Cache) ([]byte, time.Duration) {
		t0 := time.Now()
		st, err := cachedSpec(c).Run()
		if err != nil {
			b.Fatal(err)
		}
		d := time.Since(t0)
		j, err := json.Marshal(st)
		if err != nil {
			b.Fatal(err)
		}
		return j, d
	}
	printFigure("cached-study", func() {
		base, baseD := runStudy(nil)
		cache, err := artcache.Open(b.TempDir(), artcache.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cold, coldD := runStudy(cache)
		warm, warmD := runStudy(cache)
		if !bytes.Equal(base, cold) || !bytes.Equal(base, warm) {
			b.Fatal("cached study results differ from the uncached run")
		}
		s := cache.Stats()
		fmt.Printf("\nCached study: uncached %v, cold %v, warm %v (%.2fx warm over cold; %d hits, %d misses, byte-identical results)\n",
			baseD.Round(time.Millisecond), coldD.Round(time.Millisecond), warmD.Round(time.Millisecond),
			float64(coldD)/float64(warmD), s.Hits, s.Misses)
	})

	// Unit: one experiment preparation, direct vs warm cache hit. gsm's
	// golden run is tens of thousands of cycles — prep cost here is
	// dominated by simulation, as in real studies, not by the compile.
	bench, _ := workloads.ByName("gsm")
	prog, err := compiler.Compile(bench.Source(bench.TestSize), "gsm", compiler.O2,
		compiler.Target{XLEN: 32, NumArchRegs: 16})
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.CortexA15Like()
	cache, err := artcache.Open(b.TempDir(), artcache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prime, err := core.CachedExperiment(cache, cfg, prog, faultinj.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prime.Close()
	for _, sub := range []struct {
		name  string
		cache *artcache.Cache
	}{{"direct", nil}, {"warm", cache}} {
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exp, err := core.CachedExperiment(sub.cache, cfg, prog, faultinj.Options{})
				if err != nil {
					b.Fatal(err)
				}
				exp.Close()
			}
		})
	}
}

// BenchmarkCompile times the compiler itself (all four levels).
func BenchmarkCompile(b *testing.B) {
	bench, _ := workloads.ByName("rijndael")
	src := bench.Source(bench.TestSize)
	tgt := compiler.Target{XLEN: 64, NumArchRegs: 32}
	for _, level := range compiler.Levels {
		b.Run(level.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compiler.Compile(src, "rijndael", level, tgt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_StoreForwarding quantifies the DESIGN.md ablation:
// LQ vulnerability with and without store-to-load forwarding.
func BenchmarkAblation_StoreForwarding(b *testing.B) {
	printFigure("ablation-fwd", func() {
		bench, _ := workloads.ByName("qsort")
		prog, err := compiler.Compile(bench.Source(bench.TestSize), "qsort", compiler.O2,
			compiler.Target{XLEN: 32, NumArchRegs: 16})
		if err != nil {
			panic(err)
		}
		faults := envInt("SEV_FAULTS", 8) * 4
		fmt.Println("\nAblation: store-to-load forwarding (qsort, O2, A15-like, LQ field)")
		for _, fwd := range []bool{true, false} {
			cfg := machine.CortexA15Like()
			cfg.CPU.StoreForwarding = fwd
			exp, err := faultinj.NewExperiment(cfg, prog)
			if err != nil {
				panic(err)
			}
			lq, _ := faultinj.TargetByName("LQ")
			r := campaign.Run(exp, lq, campaign.Options{Faults: faults, Seed: 3})
			fmt.Printf("  forwarding=%-5v golden=%7d cycles  LQ AVF=%.2f%%\n",
				fwd, exp.GoldenCycles, r.AVF()*100)
		}
	})
	benchInjections(b, "LQ")
}

// BenchmarkAblation_Scheduling quantifies the instruction-scheduling
// design choice: cycles at O2 with the list scheduler forced on/off.
func BenchmarkAblation_Scheduling(b *testing.B) {
	printFigure("ablation-sched", func() {
		bench, _ := workloads.ByName("fft")
		src := bench.Source(bench.TestSize)
		tgt := compiler.Target{XLEN: 64, NumArchRegs: 32}
		prog := cli2Compile(b, src, tgt, false)
		progSched := cli2Compile(b, src, tgt, true)
		cfg := machine.CortexA72Like()
		r1 := machine.New(cfg, prog).Run(1 << 30)
		r2 := machine.New(cfg, progSched).Run(1 << 30)
		fmt.Println("\nAblation: list instruction scheduling (fft, O2, A72-like)")
		fmt.Printf("  without scheduler: %d cycles\n  with scheduler:    %d cycles\n",
			r1.Cycles, r2.Cycles)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = i
	}
}

// cli2Compile compiles at O2 with explicit scheduler control.
func cli2Compile(b *testing.B, src string, tgt compiler.Target, sched bool) *machine.Program {
	b.Helper()
	prog := mustParseB(b, src)
	mod, err := compiler.Lower(prog, tgt.WordSize())
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range mod.Funcs {
		compiler.RunO1(f, tgt.XLEN)
		compiler.RunO2(f, tgt.XLEN, 14)
		if sched {
			compiler.Schedule(f)
		}
	}
	p, err := compiler.Generate(mod, tgt, false)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func mustParseB(b *testing.B, src string) *lang.Program {
	b.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkExtension_MultiBitUpsets extends the study with the
// multi-bit fault models: AVF of the ROB control field under single,
// double-adjacent, and quad-adjacent upsets (the direction of the
// authors' companion MBU work).
func BenchmarkExtension_MultiBitUpsets(b *testing.B) {
	printFigure("ext-mbu", func() {
		exp := injectionUnit(b)
		ctrl, _ := faultinj.TargetByName("ROB.ctrl")
		faults := envInt("SEV_FAULTS", 8) * 4
		fmt.Println("\nExtension: multi-bit upsets (qsort, O2, A15-like, ROB.ctrl)")
		for _, model := range faultinj.Models() {
			r := campaign.Run(exp, ctrl, campaign.Options{Faults: faults, Seed: 13, Model: model})
			fmt.Printf("  %-16s AVF %.2f%% (SDC %.1f%%, crash %.1f%%, timeout %.1f%%, assert %.1f%%)\n",
				model, r.AVF()*100,
				r.ClassRate(faultinj.SDC)*100, r.ClassRate(faultinj.Crash)*100,
				r.ClassRate(faultinj.Timeout)*100, r.ClassRate(faultinj.Assert)*100)
		}
	})
	exp := injectionUnit(b)
	ctrl, _ := faultinj.TargetByName("ROB.ctrl")
	inj, err := exp.Sample(ctrl, 128, 31)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.InjectModel(ctrl, inj[i%len(inj)], faultinj.DoubleAdjacent)
	}
}

// BenchmarkExtension_PerPassAblation runs the paper's stated future
// work: the performance impact of disabling individual O3 optimizations.
func BenchmarkExtension_PerPassAblation(b *testing.B) {
	printFigure("ext-ablate", func() {
		bench, _ := workloads.ByName("gsm")
		src := bench.Source(bench.TestSize)
		tgt := compiler.Target{XLEN: 64, NumArchRegs: 32}
		cfg := machine.CortexA72Like()
		base := compiler.LevelPasses(compiler.O3, tgt)
		fmt.Println("\nExtension: per-pass ablation (gsm, O3 baseline, A72-like)")
		full := uint64(0)
		labels := append([]string{""}, compiler.PassNames()...)
		for _, name := range labels {
			ps := base
			label := "full O3"
			if name != "" {
				ps = base.Without(name)
				if ps == base {
					continue
				}
				label = "  - " + name
			}
			prog, err := compiler.CompileWithPasses(src, "gsm", ps, tgt)
			if err != nil {
				panic(err)
			}
			res := machine.New(cfg, prog).Run(1 << 32)
			if full == 0 {
				full = res.Cycles
			}
			fmt.Printf("  %-14s %8d cycles (%.3fx), %d instructions\n",
				label, res.Cycles, float64(res.Cycles)/float64(full), len(prog.Code))
		}
	})
	// Unit: one full O3 compile.
	bench, _ := workloads.ByName("gsm")
	src := bench.Source(bench.TestSize)
	tgt := compiler.Target{XLEN: 64, NumArchRegs: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(src, "gsm", compiler.O3, tgt); err != nil {
			b.Fatal(err)
		}
	}
}
