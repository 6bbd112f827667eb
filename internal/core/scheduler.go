// Study-level parallel execution engine. run pipelines the compile +
// golden-run preparation of every (march, bench, level) unit and
// dispatches every cell's injections onto one shared bounded worker
// pool, so cores stay busy across cell boundaries.
//
// The engine does not build a Study. It emits one CellOutcome per
// finished cell and every outcome takes the same path (results.emit):
// journal, Assembler, caller. Determinism: every cell samples with the
// same cellSeed and the Assembler places outcomes by cell identity, so
// a saved study is byte-identical to a serial run regardless of
// Parallelism.
//
// Crash tolerance: with Spec.Journal set, every outcome is written to
// the journal as it is emitted, the journal is fsync'd once per finished
// unit, and a restart replays it into the Assembler: a killed process
// loses nothing it had emitted, a power loss at most the units then in
// flight, and the resumed study still saves byte-identical output.
// RunContext makes the whole engine cancellable (SIGINT flows in as
// context cancellation: dispatch stops, in-flight injections drain,
// the journal is flushed). A unit whose preparation fails and a cell
// whose sampling panics become failure outcomes (Study.Failed), and the
// rest of the study runs on: quarantine is the engine's one failure
// policy.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sevsim/internal/artcache"
	"sevsim/internal/binanalysis"
	"sevsim/internal/campaign"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/journal"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// compileUnit is the compile entry point, indirected so fault-tolerance
// tests can inject compile failures into chosen units. newPruner is the
// same for the analyze stage: a test fails it for chosen units, after
// their golden run succeeded, and sees the experiments it was handed.
// expOptions is what every unit's experiment is built with, Traced apart:
// the zero value, the one injection mode, which only the equivalence
// tests change to reach faultinj's reference paths.
var (
	compileUnit = compiler.Compile
	newPruner   = binanalysis.NewDUEPruner
	expOptions  faultinj.Options
)

// reporter serializes progress lines so concurrent cells never
// interleave partial output.
type reporter struct {
	mu sync.Mutex
	fn func(format string, args ...any)
}

func (r *reporter) printf(format string, args ...any) {
	if r.fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fn(format, args...)
}

// prepUnit is one (march, bench, level) triple: a compile plus a golden
// run that gates the unit's campaign cells.
type prepUnit struct {
	cfg   machine.Config
	bench workloads.Benchmark
	size  int
	level compiler.OptLevel
	prune bool
	cache *artcache.Cache // nil: prep directly, nothing persisted

	// need lists the unit's targets this run campaigns: the cells the
	// caller wants that the journal did not already hold.
	need []faultinj.Target

	// exp and pruner are what a unit in flight holds: set by the
	// preparation, dropped by release when the last cell is out. The
	// pruner is the only holder of the unit's binary analysis, so the
	// analysis goes with it. What stays is what the runner and the
	// outcomes read.
	exp    *faultinj.Experiment
	pruner faultinj.Pruner // non-nil only for prune units
	held   resident        // what exp and pruner hold, once prepared
	golden Golden
	static *StaticRF // non-nil only for prune units
	err    error
	stage  string // failing stage: "compile", "golden", "analyze"
}

// ref names one of the unit's cells.
func (u *prepUnit) ref(t faultinj.Target) CellRef {
	return CellRef{March: u.cfg.Name, Bench: u.bench.Name, Level: u.level.String(), Target: t.Name()}
}

// prepOnce performs the compile + golden-run + (for prune units)
// analysis, once: preparation is a pure function of the spec, so a
// failure is the unit's outcome, not a transient to retry, and the
// runner quarantines it. With a cache, one unit per key builds the
// bundle (concurrent requesters share it via single-flight) and hit and
// fill paths both decode the serialized bundle (loadBundle), so a warm
// study runs its campaign from exactly the same decoded state a cold
// one does. Panics from any stage are recovered into errors so one bad unit
// cannot take down the study.
func (u *prepUnit) prepOnce() {
	u.stage = "compile"
	defer func() {
		if r := recover(); r != nil {
			u.err = fmt.Errorf("%s %s %v for %s: panic: %v", u.stage, u.bench.Name, u.level, u.cfg.Name, r)
		}
	}()
	src := u.bench.Source(u.size)
	var prog *machine.Program
	if u.cache == nil {
		prog, u.exp, u.err = u.compileAndRun(src)
	} else {
		u.stage = "golden" // what a hit's decode errors are filed under
		prog, u.exp, u.err = loadBundle(u.cache, u.cacheConfig(src).cacheKey(), u.cfg, u.options(),
			fmt.Sprintf("golden %s %v on %s", u.bench.Name, u.level, u.cfg.Name),
			func() ([]byte, error) { return u.buildBundle(src) })
	}
	if u.err == nil {
		u.finishPrep(prog)
	}
}

// options is expOptions with the unit's tracing filled in.
func (u *prepUnit) options() faultinj.Options {
	opts := expOptions
	opts.Traced = u.prune
	return opts
}

// compileAndRun is the uncached front of a preparation, shared by the
// direct path and the cache fill: compile, then the golden run that
// records the checkpoint ladder.
func (u *prepUnit) compileAndRun(src string) (*machine.Program, *faultinj.Experiment, error) {
	u.stage = "compile"
	prog, err := compileUnit(src, u.bench.Name, u.level, compiler.TargetFor(u.cfg))
	if err != nil {
		return nil, nil, fmt.Errorf("compile %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	u.stage = "golden"
	exp, err := faultinj.NewExperimentOptions(u.cfg, prog, u.options())
	if err != nil {
		return nil, nil, fmt.Errorf("golden %s %v on %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	return prog, exp, nil
}

// buildBundle is the cache fill: compile and golden run, serialized.
// The experiment built here is closed — the caller decodes the bundle
// and rebuilds its own, keeping warm and cold paths structurally
// identical.
func (u *prepUnit) buildBundle(src string) ([]byte, error) {
	prog, exp, err := u.compileAndRun(src)
	if err != nil {
		return nil, err
	}
	defer exp.Close()
	return encodePrepBundle(prog, exp.Artifacts()), nil
}

// finishPrep derives the prepared unit's golden record and, for a prune
// unit, its one pruner and the static bound read off it.
func (u *prepUnit) finishPrep(prog *machine.Program) {
	u.golden = goldenOf(u.cfg, u.bench.Name, u.level, prog, u.exp)
	u.held = resident{trace: u.exp.Trace.ResidentBytes()}
	if st := u.exp.Artifacts().Stream; st != nil {
		u.held.stream = st.ResidentBytes()
	}
	if !u.prune {
		return
	}
	u.stage = "analyze"
	pr, a, err := u.buildPruner(prog, u.exp)
	if err != nil {
		u.err = err
		return
	}
	u.pruner = pr
	u.held.pruner, u.held.analysis = pr.ResidentBytes(), a.ResidentBytes()
	static := staticOf(u.cfg, u.bench.Name, u.level, pr)
	u.static = &static
}

// buildPruner runs the binary ACE analysis and wraps it in the unit's
// three-way pruner, which then holds it alone: no other unit reuses it,
// so it lives exactly as long as the unit's pruner.
func (u *prepUnit) buildPruner(prog *machine.Program, exp *faultinj.Experiment) (*binanalysis.DUEPruner, *binanalysis.Analysis, error) {
	a, err := binanalysis.AnalyzeWords(prog.Code)
	if err != nil {
		return nil, nil, fmt.Errorf("analyze %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	pr, err := newPruner(a, exp)
	if err != nil {
		return nil, nil, fmt.Errorf("pruner %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	return pr, a, nil
}

// staticOf renders a pruner's bound as the study's static RF record.
func staticOf(cfg machine.Config, bench string, level compiler.OptLevel, pr *binanalysis.DUEPruner) StaticRF {
	b := pr.Bound()
	return StaticRF{
		March: cfg.Name, Bench: bench, Level: level.String(),
		MaskedLB: b.MaskedLB, AVFUpperBound: b.AVFUpperBound,
		PrunableBits: b.PrunableBits, SpaceBits: b.SpaceBits,
		RegMaskedLB: b.RegMaskedLB, RegAVFUpperBound: 1 - b.RegMaskedLB,
		RegPrunableBits: b.RegPrunableBits,
		DueLB:           b.DueLB,
		SDCUpperBound:   b.SDCUpperBound,
		DuePrunableBits: b.DuePrunableBits,
	}
}

// resident is what prepared units hold, in bytes by layer.
type resident struct{ trace, stream, pruner, analysis int }

func (r resident) total() int { return r.trace + r.stream + r.pruner + r.analysis }

// add adds sign (1 or -1) times o.
func (r *resident) add(o resident, sign int) {
	r.trace += sign * o.trace
	r.stream += sign * o.stream
	r.pruner += sign * o.pruner
	r.analysis += sign * o.analysis
}

// flight is the account of a study's units in flight. A unit is in flight
// from its admission, just before its preparation is submitted, to its
// release; one runner holds it all that time, on every path, so at most
// workers + 1 units are in flight and what a study holds follows its
// workers, not its units.
type flight struct {
	mu       sync.Mutex
	now, max int                    // in flight, and the most there ever were
	held     resident               // by the prepared units in flight
	maxHeld  resident               // held at its largest
	fastPath faultinj.FastPathStats // the exits and cycles of every released unit's injections
}

// unitHook, when a test sets it, sees every unit as it is admitted
// (released false) and as it is released, before its runner takes the
// next (released true).
var unitHook func(u *prepUnit, released bool)

// admit counts u into the flight.
func (f *flight) admit(u *prepUnit) {
	f.mu.Lock()
	f.now++
	f.max = max(f.max, f.now)
	f.mu.Unlock()
	if unitHook != nil {
		unitHook(u, false)
	}
}

// prepared adds a successfully prepared unit's holdings to the account.
func (f *flight) prepared(u *prepUnit) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.held.add(u.held, 1)
	if f.held.total() > f.maxHeld.total() {
		f.maxHeld = f.held
	}
}

// release ends u's flight, the end of every unit's life: after the last
// cell, after a failed preparation, after a cancelled run. It closes the
// unit's experiment, handing its ladder's pooled core snapshots back, and
// drops it and the pruner so the collector can take the trace, the
// ladder, the tables and the analysis with them.
func (f *flight) release(u *prepUnit) {
	var fp faultinj.FastPathStats
	if u.exp != nil {
		fp = u.exp.FastPathStats()
		u.exp.Close()
	}
	u.exp, u.pruner = nil, nil
	f.mu.Lock()
	f.now--
	f.fastPath.Add(fp)
	if u.err == nil {
		f.held.add(u.held, -1)
	}
	f.mu.Unlock()
	if unitHook != nil {
		unitHook(u, true)
	}
}

// residency is the end-of-run account of a study's resident set, printed
// beside the journal's and never part of study.json.
type residency struct {
	Units, Window, MaxInFlight int
	Held                       resident // by the prepared units in flight, at its largest
}

func (r residency) String() string {
	mb := func(n int) float64 { return float64(n) / (1 << 20) }
	return fmt.Sprintf("%d units prepared, at most %d in flight (window %d) holding at most %.1f MB trace, %.1f MB checkpoints, %.1f MB pruner tables, %.1f MB analyses",
		r.Units, r.MaxInFlight, r.Window, mb(r.Held.trace), mb(r.Held.stream), mb(r.Held.pruner), mb(r.Held.analysis))
}

// results is the one path every outcome of a run takes, replayed or
// fresh: journal (fresh only), Assembler, then the caller's sink when
// it asked for the cell. The mutex makes the three steps one, so the
// journal holds outcomes in exactly the order the Assembler merged
// them and a replay rebuilds the same assembly.
type results struct {
	mu     sync.Mutex
	asm    *Assembler
	want   map[CellRef]bool // nil: every cell
	sink   func(CellOutcome)
	jw     *journal.Writer // nil: not journaled
	cancel func()          // stops the run on the first error
	err    error
}

func (r *results) wanted(ref CellRef) bool { return r.want == nil || r.want[ref] }

// merge adds one outcome to the assembly and passes it on.
func (r *results) merge(o CellOutcome) error {
	accepted, err := r.asm.Add(o)
	if accepted && r.wanted(o.Cell) {
		r.sink(o)
	}
	return err
}

// emit records one freshly computed outcome of unit u. The unit's
// golden rides on the first outcome the assembly lacks it for — which
// is therefore also the unit's first record in the journal, so any
// prefix of the journal that mentions a unit carries its golden. The
// first error cancels the run (it must not outlive its durability
// guarantee) and is reported after the drain.
func (r *results) emit(u *prepUnit, o CellOutcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if g, _ := r.asm.unitGolden(o.Cell); g == nil && o.UnitFailure == nil {
		o.Golden, o.Static = &u.golden, u.static
	}
	if r.jw != nil {
		if err := WriteOutcome(r.jw, o); err != nil {
			r.err = fmt.Errorf("study journal: %w", err)
		}
	}
	if r.err == nil {
		r.err = r.merge(o)
	}
	if r.err != nil {
		r.cancel()
	}
}

// sync makes the outcomes emitted so far durable against power loss;
// called once per unit, when the unit's last cell has been emitted.
func (r *results) sync() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jw == nil || r.err != nil {
		return
	}
	if err := r.jw.Sync(); err != nil {
		r.err = fmt.Errorf("study journal: %w", err)
		r.cancel()
	}
}

// Run executes the study on a shared worker pool of Spec.Parallelism
// workers (<= 0: GOMAXPROCS). Compile and golden runs are pipelined
// with the injection campaigns: each unit's cells are dispatched the
// moment its golden run finishes, while other units are still
// preparing. Results are deterministic and identical to a serial
// (Parallelism: 1) run. A unit whose preparation fails, or a cell whose
// sampling panics, is quarantined into Study.Failed and the rest of the
// study runs on; Run returns an error only when it is cancelled or the
// journal cannot be opened, replayed or written.
func (s Spec) Run() (*Study, error) { return s.RunContext(context.Background()) }

// RunContext is Run with cancellation and crash tolerance: cancelling
// ctx stops dispatching new work, drains in-flight injections, flushes
// the journal (Spec.Journal), and returns the context's error. A
// subsequent run with the same spec and journal resumes from the last
// durable record.
func (s Spec) RunContext(ctx context.Context) (*Study, error) {
	asm := NewAssembler(s)
	if err := s.run(ctx, asm, nil, func(CellOutcome) {}); err != nil {
		return nil, err
	}
	return asm.Study()
}

// run is the engine shared by RunContext (want nil: the whole study)
// and RunCells (want restricts the work to the requested cells' units
// and targets). Every outcome the journal already holds and every
// outcome computed here is merged into asm; the wanted ones are also
// handed to sink, one at a time.
func (s Spec) run(ctx context.Context, asm *Assembler, want map[CellRef]bool, sink func(CellOutcome)) error {
	// runCtx cancels the whole engine: external interruption or a journal
	// write error.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	rep := &reporter{fn: s.Progress}
	res := &results{asm: asm, want: want, sink: sink, cancel: cancelRun}
	if s.Journal != "" {
		jw, err := OpenJournal(s.Journal, s.Wire(), res.merge)
		if err != nil {
			return err
		}
		defer func() {
			jw.Close()
			rep.printf("journal %s: %s", s.Journal, jw.Stats())
		}()
		res.jw = jw
		if n := asm.Done(); n > 0 {
			total := asm.Total()
			if want != nil {
				total = len(want) // a lease's journal holds the lease's cells
			}
			rep.printf("resume: %d/%d cells replayed from journal %s", n, total, s.Journal)
		}
	}

	// Enumerate prep units in the serial loop's order. A unit with no
	// wanted cell left to compute is not prepared at all.
	sizes := s.resolveSizes()
	var units []*prepUnit
	for _, cfg := range s.Machines {
		for bi, bench := range s.Benchmarks {
			for _, level := range s.Levels {
				var need []faultinj.Target
				for _, t := range s.Targets {
					ref := CellRef{March: cfg.Name, Bench: bench.Name, Level: level.String(), Target: t.Name()}
					if res.wanted(ref) && !asm.Has(ref) {
						need = append(need, t)
					}
				}
				if len(need) == 0 {
					continue
				}
				units = append(units, &prepUnit{
					cfg: cfg, bench: bench, size: sizes[bi], level: level,
					prune: s.Prune, cache: s.Cache, need: need,
				})
			}
		}
	}

	workers := s.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := campaign.NewPool(workers)
	defer pool.Close()

	fl := &flight{}
	defer func() {
		if fl.fastPath != (faultinj.FastPathStats{}) {
			rep.printf("fast path: %s", fl.fastPath)
		}
		rep.printf("resident: %s", residency{Units: len(units), Window: workers + 1, MaxInFlight: fl.max, Held: fl.maxHeld})
	}()

	// life carries one unit from admission to release. Its preparation
	// runs on the same pool as the injections, so compiles and golden runs
	// for later units overlap with the campaigns of earlier ones. A
	// cancelled run still admits and releases every unit but prepares
	// none.
	life := func(u *prepUnit) {
		fl.admit(u)
		defer fl.release(u)
		prepared := make(chan struct{})
		pool.Submit(func() {
			defer close(prepared)
			if runCtx.Err() == nil {
				u.prepOnce()
			}
		})
		<-prepared
		if u.err != nil {
			f := Failure{March: u.cfg.Name, Bench: u.bench.Name, Level: u.level.String(), Stage: u.stage, Err: u.err.Error()}
			for _, t := range u.need {
				res.emit(u, unitFailed(u.ref(t), f))
			}
			res.sync()
			rep.printf("FAILED %-16s %-9s %s: %s (quarantined)", u.cfg.Name, u.bench.Name, u.level, u.err)
			return
		}
		if u.exp == nil {
			return // cancelled before its preparation started
		}
		fl.prepared(u)
		rep.printf("golden %-16s %-9s %s: %d cycles (IPC %.2f)",
			u.cfg.Name, u.bench.Name, u.level, u.exp.GoldenCycles, u.exp.GoldenStats.Stats.IPC())

		// Every needed cell runs as one campaign and emits its outcome as
		// it finishes: the result, or the failure of a cell whose sampling
		// panicked. A cell cut short by cancellation emits nothing.
		cells := make([]campaign.Cell, len(u.need))
		for i, t := range u.need {
			ref := u.ref(t)
			cells[i] = campaign.Cell{Target: t, Seed: cellSeed(s.Seed, ref.March, ref.Bench, ref.Level, ref.Target)}
		}
		opts := campaign.Options{Faults: s.Faults, Pool: pool, Pruner: u.pruner, Context: runCtx}
		campaign.RunUnit(u.exp, cells, opts, func(i int, r campaign.Result, err error) {
			ref := u.ref(u.need[i])
			switch {
			case err != nil:
				res.emit(u, CellFailed(ref, Failure{March: ref.March, Bench: ref.Bench, Level: ref.Level, Target: ref.Target,
					Stage: "cell", Err: fmt.Sprintf("cell %s: %v", ref, err)}))
				return
			case r.Interrupted:
				return // cancellation: drop the partial cell
			}
			r.March, r.Bench, r.Level = ref.March, ref.Bench, ref.Level
			res.emit(u, CellOutcome{Cell: ref, Result: r})
			rep.printf("  %-16s %-9s %-2s %-9s AVF %5.1f%% of %d  (SDC %d, crash %d, timeout %d, assert %d)",
				r.March, r.Bench, r.Level, r.Target, r.AVF()*100, r.Faults, r.Counts.SDC, r.Counts.Crash,
				r.Counts.Timeout, r.Counts.Assert)
		})
		// Every cell of this unit is done: once they are durable the
		// deferred release hands the unit's golden checkpoint snapshots
		// back to the buffer pools, so the next unit's checkpoints reuse
		// them instead of allocating, and lets go of the rest.
		res.sync()
	}

	// workers + 1 runners take the units in enumeration order and each
	// carries one unit at a time through its life, so the runners are the
	// window. Runners only sample, dispatch and wait; all heavy work runs
	// on the pool's workers, so CPU use stays at `workers`, and a runner
	// waits only for its own pool tasks, which wait for nothing. Every
	// worker can be on the cells of its own unit while one more unit
	// prepares, so two units ending together leave no worker waiting for
	// a golden run; more runners would only hold more, so their number is
	// derived, not a knob.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers + 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(units); i = int(next.Add(1)) - 1 {
				life(units[i])
			}
		}()
	}
	wg.Wait()

	// A journal that stopped persisting invalidates the run's
	// durability guarantee; surface it over everything else.
	if res.err != nil {
		return res.err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("study interrupted (completed cells are journaled; rerun with the same spec and journal to resume): %w", err)
	}
	return nil
}
