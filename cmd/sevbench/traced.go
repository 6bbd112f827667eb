package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"time"

	"sevsim/internal/binanalysis"
	"sevsim/internal/binio"
	"sevsim/internal/campaign"
	"sevsim/internal/checkpoint"
	"sevsim/internal/compiler"
	"sevsim/internal/core"
	"sevsim/internal/faultinj"
	"sevsim/internal/interp"
	"sevsim/internal/lang"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// The traced run drives a workload's shape itself, on one goroutine,
// through the layers' public functions, recording one span per call.
// It never feeds an end-to-end metric.

// families groups the fifteen structure fields the way the per-layer
// injection metrics are reported.
var families = []string{"rf", "rob", "iq", "lsq", "l1i", "l1d", "l2"}

func familyOf(t faultinj.Target) int {
	switch t.Component {
	case "RF":
		return 0
	case "ROB":
		return 1
	case "IQ":
		return 2
	case "LQ", "SQ":
		return 3
	case "L1I":
		return 4
	case "L1D":
		return 5
	default:
		return 6
	}
}

var outcomeNames = []string{"masked", "sdc", "crash", "timeout", "assert"}

// restoreProbeCycles is how far the restore probe simulates past a
// checkpoint before restoring it again, so the second restore has a
// touched-line set of a typical short post-flip run to copy back.
const restoreProbeCycles = 4096

// tracedUnit is one prepared (march, bench, level) of the traced
// sample, kept for the layer probes that need a real program.
type tracedUnit struct {
	id   string
	cfg  machine.Config
	prog *machine.Program
	cyc  uint64
}

// driver accumulates what the spans alone do not carry.
type driver struct {
	e    *env
	w    workload
	spec core.Spec
	tr   *tracer
	pool *campaign.Pool // one worker: campaign.Run's own overhead, undiluted

	units      []tracedUnit
	cells      int           // traced cells
	cellCycles float64       // sum over traced cells of golden cycles x faults
	serial     time.Duration // the same cells through Spec.RunCells at Parallelism 1

	codeWords    int
	goldenCycles uint64
	ipcSum       float64
	streamBytes  int
	mismatches   int

	oracle map[string][]uint64 // bench/xlen -> interpreter output

	injectByFamily  [7][]float64
	injectByOutcome [5][]float64
	injectFirst     []float64
	injectNext      []float64
	outcomes        [5]int
	preflip         []float64
	postflip        []float64
	queries         int
	pruned          [4]int // by faultinj.PruneKind

	// The traced cells replay the study's own faults (see sampleSeed), so
	// their outcome counts should equal the reference study's.
	ref        *core.Study
	sameCounts int

	problems []string
}

func (d *driver) fail(format string, args ...any) {
	d.problems = append(d.problems, fmt.Sprintf(format, args...))
}

// sampleSeed derives a cell's sampling seed from -seed and the cell key
// the way core derives its private per-cell seed today, so the traced
// cells replay the study's own faults and the serial reference compares
// like with like. Should core change its derivation, the traced faults
// become merely statistically equivalent to the study's.
func sampleSeed(master int64, ref core.CellRef) int64 {
	h := fnv.New64a()
	for _, part := range []string{ref.March, ref.Bench, ref.Level, ref.Target} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return master ^ int64(h.Sum64()&0x7fffffffffffffff)
}

// traceUnits walks the spec's units in study order and drives every
// unitStride-th one through compile, oracle, golden run, checkpoint
// recording, preparation, analysis and its sampled cells. The same cells
// also go through Spec.RunCells at Parallelism 1 — what the traced
// driver's study-equivalent spans should add up to if measuring from
// outside cost nothing. The two take turns going first, so neither
// always pays for the heap growth the other then reuses.
func (d *driver) traceUnits() error {
	nt := len(d.spec.Targets)
	serial := d.spec
	serial.Parallelism = 1
	stride := d.w.unitStride
	if d.e.smoke {
		stride *= 3 // still coprime to the level and benchmark counts; a third of the sample
	}
	ui := -1
	for _, cfg := range d.spec.Machines {
		for _, bench := range d.spec.Benchmarks {
			for _, level := range d.spec.Levels {
				ui++
				if ui%stride != 0 {
					continue
				}
				if err := d.e.ctx.Err(); err != nil {
					return err
				}
				id := cfg.Name + "/" + bench.Name + "/" + level.String()
				var cells []core.CellRef
				for ti, target := range d.spec.Targets {
					if (ui*nt+ti)%d.w.cellStride == 0 {
						cells = append(cells, core.CellRef{March: cfg.Name, Bench: bench.Name, Level: level.String(), Target: target.Name()})
					}
				}
				var terr, rerr error
				traced := func() {
					d.tr.do("unit", id, func() { terr = d.traceUnit(id, cfg, bench, level, cells) })
				}
				reference := func() {
					d.serial += d.tr.do("core.run_cells", id, func() { _, rerr = serial.RunCells(d.e.ctx, cells) })
				}
				if len(d.units)%2 == 0 {
					traced()
					reference()
				} else {
					reference()
					traced()
				}
				if terr != nil {
					return fmt.Errorf("%s: %w", id, terr)
				}
				if rerr != nil {
					return fmt.Errorf("%s: serial reference: %w", id, rerr)
				}
			}
		}
	}
	return nil
}

func (d *driver) traceUnit(id string, cfg machine.Config, bench workloads.Benchmark, level compiler.OptLevel, cells []core.CellRef) error {
	src := bench.Source(d.spec.Size(bench))
	tgt := compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs}

	var prog *machine.Program
	var err error
	d.tr.do("compiler.compile."+level.String(), id, func() { prog, err = compiler.Compile(src, bench.Name, level, tgt) })
	if err != nil {
		return err
	}
	d.codeWords += len(prog.Code)

	// The independent oracle: once per (bench, word width), compared
	// with every level's machine output.
	okey := fmt.Sprintf("%s/%d", bench.Name, cfg.CPU.XLEN)
	want, ok := d.oracle[okey]
	if !ok {
		var ast *lang.Program
		d.tr.do("lang.parse", id, func() { ast, err = lang.Parse(src) })
		if err != nil {
			return err
		}
		d.tr.do("interp.run", id, func() { want, err = interp.Run(ast, cfg.CPU.XLEN, 1<<40) })
		if err != nil {
			return err
		}
		d.oracle[okey] = want
	}

	// Golden run and checkpoint recording, driven directly so each is
	// timed on its own; faultinj.prep below repeats both inside one call.
	var m *machine.Machine
	var res machine.Result
	d.tr.do("machine.new", id, func() { m = machine.New(cfg, prog) })
	d.tr.do("machine.golden", id, func() { res = m.Run(1 << 40) })
	if res.Outcome != machine.OutcomeOK {
		return fmt.Errorf("golden run ended %s %s", res.Outcome, res.Reason)
	}
	if !slices.Equal(res.Output, want) {
		d.mismatches++
		d.fail("%s: machine output differs from the interpreter's", id)
	}
	d.goldenCycles += res.Cycles
	d.ipcSum += res.Stats.IPC()

	points := checkpoint.Cycles(res.Cycles, faultinj.DefaultCheckpoints)
	var stream *checkpoint.Stream
	d.tr.do("checkpoint.record", id, func() { stream, _ = checkpoint.Record(machine.New(cfg, prog), 1<<40, points) })
	d.tr.do("checkpoint.encode", id, func() {
		var w binio.Writer
		stream.EncodeTo(&w)
		d.streamBytes += len(w.Bytes())
	})
	d.probeRestore(id, cfg, prog, stream)
	stream.Release()

	var exp *faultinj.Experiment
	d.tr.do("faultinj.prep", id, func() {
		exp, err = faultinj.NewExperimentOptions(cfg, prog, faultinj.Options{Traced: d.spec.Prune})
	})
	if err != nil {
		return err
	}
	defer exp.Close()

	var pruner *binanalysis.DUEPruner
	if d.spec.Prune {
		var a *binanalysis.Analysis
		d.tr.do("binanalysis.analyze", id, func() { a, err = binanalysis.AnalyzeWords(prog.Code) })
		if err != nil {
			return err
		}
		d.tr.do("binanalysis.pruner_build", id, func() { pruner, err = binanalysis.NewDUEPruner(a, exp) })
		if err != nil {
			return err
		}
		d.tr.do("binanalysis.bound", id, func() { pruner.Bound() })
	}

	for _, ref := range cells {
		target, _ := faultinj.TargetByName(ref.Target) // the name came from a target
		d.tr.do("campaign.cell", ref.Key(), func() { d.traceCell(ref, exp, target, pruner, points) })
		d.cellCycles += float64(res.Cycles) * float64(d.spec.Faults)
	}
	d.cells += len(cells)
	d.units = append(d.units, tracedUnit{id: id, cfg: cfg, prog: prog, cyc: res.Cycles})
	return nil
}

// probeRestore times the three machine operations under every
// injection: a full restore (a scratch machine's first), a snapshot, and
// a delta restore (the same checkpoint again after a short run).
func (d *driver) probeRestore(id string, cfg machine.Config, prog *machine.Program, stream *checkpoint.Stream) {
	snaps := stream.Snaps()
	if len(snaps) == 0 {
		return
	}
	base := snaps[len(snaps)/2]
	m := machine.New(cfg, prog)
	d.tr.do("machine.restore_full", id, func() { m.Restore(base) })
	m.Run(base.Cycle + restoreProbeCycles)
	d.tr.do("machine.snapshot", id, func() { m.Snapshot().Release() })
	d.tr.do("machine.restore_delta", id, func() { m.Restore(base) })
}

// traceCell runs one cell's injections the way campaign.Run does —
// sample, group by checkpoint, chunks of 32 on one batch — with a span
// per call, then lets campaign.Run do the same cell on a one-worker pool
// to see what the cell costs beyond its injections.
func (d *driver) traceCell(ref core.CellRef, exp *faultinj.Experiment, target faultinj.Target, pruner *binanalysis.DUEPruner, points []uint64) {
	key := ref.Key()
	seed := sampleSeed(d.e.seed, ref)
	var injections []faultinj.Injection
	var err error
	d.tr.do("faultinj.sample", key, func() { injections, err = exp.Sample(target, d.spec.Faults, seed) })
	if err != nil {
		d.fail("%s: %v", key, err)
		return
	}
	fam := familyOf(target)
	var got [5]int       // this cell's outcome counts
	const chunkSize = 32 // campaign.Run's
	for _, group := range exp.BatchByCheckpoint(injections) {
		for start := 0; start < len(group); start += chunkSize {
			chunk := group[start:min(start+chunkSize, len(group))]
			b := exp.NewBatch()
			for j, i := range chunk {
				inj := injections[i]
				if pruner != nil {
					var kind faultinj.PruneKind
					d.tr.do("binanalysis.query", key, func() { kind, _ = pruner.PrunableKind(target, inj) })
					if target.Component == "RF" { // elsewhere the pruner has nothing to decide
						d.queries++
					}
					d.pruned[kind]++
					if kind != faultinj.PruneNone {
						if kind == faultinj.PruneDUE {
							got[faultinj.Crash]++
						} else {
							got[faultinj.Masked]++
						}
						continue
					}
				}
				var r faultinj.InjectResult
				dur := d.tr.do("faultinj.inject", key, func() { r = b.Inject(target, inj) })
				o := min(int(r.Outcome), len(outcomeNames)-1)
				got[o]++
				if r.Unexpected {
					d.fail("%s: unexpected simulator panic at cycle %d bit %d", key, inj.Cycle, inj.Bit)
				}
				d.injectByFamily[fam] = append(d.injectByFamily[fam], seconds(dur))
				d.injectByOutcome[o] = append(d.injectByOutcome[o], seconds(dur))
				if j == 0 {
					d.injectFirst = append(d.injectFirst, seconds(dur))
				} else {
					d.injectNext = append(d.injectNext, seconds(dur))
				}
				d.preflip = append(d.preflip, float64(inj.Cycle-latestAtOrBefore(points, inj.Cycle)))
				if r.Outcome != faultinj.Masked && r.Cycles >= inj.Cycle {
					d.postflip = append(d.postflip, float64(r.Cycles-inj.Cycle))
				}
			}
			b.Close()
		}
	}
	for i, n := range got {
		d.outcomes[i] += n
	}
	if want, ok := d.ref.Result(ref.March, ref.Bench, ref.Level, ref.Target); ok {
		c := want.Counts
		if got == [5]int{c.Masked, c.SDC, c.Crash, c.Timeout, c.Assert} {
			d.sameCounts++
		}
	}

	// The same cell through campaign.Run on a one-worker pool, then once
	// more with a pruner that proves every injection: what is left is
	// the per-cell overhead (sample, grouping, pool hand-off, batch
	// set-up) with no simulation in it.
	opts := campaign.Options{Faults: d.spec.Faults, Seed: seed, Pool: d.pool, Context: d.e.ctx}
	if pruner != nil {
		opts.Pruner = pruner
	}
	d.tr.do("campaign.run", key, func() { campaign.Run(exp, target, opts) })
	opts.Pruner = pruneAll{}
	d.tr.do("campaign.overhead", key, func() { campaign.Run(exp, target, opts) })
}

// pruneAll proves every injection masked, so a campaign does everything
// but simulate.
type pruneAll struct{}

func (pruneAll) Prunable(faultinj.Target, faultinj.Injection) (bool, string) { return true, "sevbench" }

// latestAtOrBefore returns the latest checkpoint cycle at or before c.
func latestAtOrBefore(points []uint64, c uint64) uint64 {
	var best uint64
	for _, p := range points {
		if p <= c {
			best = p
		}
	}
	return best
}

// tracedResult is the traced run of one workload.
type tracedResult struct {
	Workload string
	Seed     int64
	Units    int // traced prep units
	Cells    int // traced cells
	// SameCounts is how many traced cells reproduced the reference
	// study's outcome counts: all of them while sampleSeed matches core.
	SameCounts int
	Spans      int
	Attempted  int
	Failed     int
	Problems   []string
	SHA        string
	Host       hostInfo
	Metrics    metricSet
	Profile    []profileRow
}

// runTraced measures the workload once untraced (the reference every
// derived metric divides by), then drives the traced sample, the layer
// probes and the serial reference.
func (e *env) runTraced(w workload) (*tracedResult, *tracer, error) {
	res := &tracedResult{Workload: w.name, Seed: e.seed, Host: fingerprint()}
	spec := w.spec(e.seed, e.smoke)
	cache, local, err := e.warmup(w, spec)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}

	d := &driver{e: e, w: w, spec: spec, tr: newTracer(), pool: campaign.NewPool(1), oracle: map[string][]uint64{}}
	defer d.pool.Close()

	var u studyOut
	var distOverhead float64
	if w.dist {
		if u, err = e.runDist(spec, cache.Dir()); err != nil {
			return nil, nil, err
		}
		warm := spec
		warm.Cache = cache
		lw, err := e.runLocal(warm, false)
		if err != nil {
			return nil, nil, err
		}
		distOverhead = seconds(u.wall - lw.wall)
		if !bytes.Equal(u.bytes, local.bytes) {
			d.fail("distributed merge differs from the local run of the same spec")
		}
	} else if u, err = e.runLocal(spec, w.journal); err != nil {
		return nil, nil, err
	}
	res.SHA = u.sha()
	d.ref = u.st

	if err := d.traceUnits(); err != nil {
		return nil, nil, err
	}
	probes, err := d.probeLayers(u)
	if err != nil {
		return nil, nil, err
	}

	res.Units, res.Cells, res.Spans, res.SameCounts = len(d.units), d.cells, len(d.tr.spans), d.sameCounts
	res.Metrics, res.Profile = d.metrics(u, distOverhead, probes)
	res.Metrics["ref_drift_cells"] = float64(e.refDrift(w, u.st))
	// Every traced unit is checked against the oracle and every traced
	// cell for simulator panics; each failed check, of a unit, a cell or
	// a whole-study probe, counts once.
	res.Attempted = len(d.units) + d.cells
	res.Failed = min(len(d.problems), res.Attempted)
	res.Problems = d.problems
	res.Host.LoadEnd = loadAvg()
	return res, d.tr, nil
}

// reportTraced runs the traced measurement and prints it.
func (e *env) reportTraced(w workload, o options) int {
	res, tr, err := e.runTraced(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sevbench:", err)
		return 1
	}
	fmt.Printf("sevbench %s: per-layer, traced (single goroutine, %d of the study's units, %d cells, %d spans)\n",
		w.name, res.Units, res.Cells, res.Spans)
	printHost(res.Host, e)
	fmt.Println("  faults are sampled with seeds derived from -seed and the cell key as core derives them today; if core changes that, they are statistically equivalent to the study's, not the same")
	fmt.Printf("  %d of %d traced cells reproduced the reference study's outcome counts\n", res.SameCounts, res.Cells)
	missing := res.Metrics.render(perLayerMetrics)
	for _, name := range missing {
		res.Problems = append(res.Problems, "no value for declared metric "+name)
		res.Failed = max(res.Failed, 1)
	}
	fmt.Println("  where the study's CPU time goes (traced sample scaled to the whole study by golden cycles):")
	for _, row := range res.Profile {
		fmt.Printf("    %-38s %9.3f s %6.1f%%\n", row.Name, row.Seconds, row.Share*100)
	}
	fmt.Printf("  study_sha256 %s\n", res.SHA)
	for _, p := range res.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	if o.out != "" {
		path := filepath.Join(o.out, w.name+".spans.ndjson")
		err := os.MkdirAll(o.out, 0o755)
		if err == nil {
			err = tr.write(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sevbench:", err)
			return 1
		}
		fmt.Printf("  spans written to %s\n", path)
	}
	return finish(res, contractResult{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   res.Metrics.contractMetrics(perLayerMetrics),
	})
}
