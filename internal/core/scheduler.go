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
// the journal is flushed), and Spec.KeepGoing turns failed units and
// cells into failure outcomes (Study.Failed) instead of aborting the
// run.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"sevsim/internal/artcache"
	"sevsim/internal/binanalysis"
	"sevsim/internal/campaign"
	"sevsim/internal/compiler"
	"sevsim/internal/dispatch/backoff"
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
	cfg      machine.Config
	bench    workloads.Benchmark
	size     int
	level    compiler.OptLevel
	prune    bool
	retries  int
	analyses *analysisCache  // shared across the study's prune units
	cache    *artcache.Cache // nil: prep directly, nothing persisted

	// need lists the unit's targets this run campaigns: the cells the
	// caller wants that the journal did not already hold. cellErr,
	// parallel to it, collects recovered cell panics for abort mode.
	need    []faultinj.Target
	cellErr []error

	// Retry pacing between failed preparation attempts: the shared
	// exponential-backoff policy, jittered from a deterministic
	// per-unit seed so retry schedules reproduce run to run.
	backoff backoff.Policy
	jitter  *backoff.Source

	// exp and pruner are what a unit in flight holds: set by the
	// preparation, dropped by release when the last cell is out. What
	// stays is what run's epilogue and the outcomes read.
	exp      *faultinj.Experiment
	pruner   faultinj.Pruner // non-nil only for prune units
	held     resident        // what exp and pruner hold, once prepared
	golden   Golden
	static   *StaticRF // non-nil only for prune units
	err      error
	stage    string // failing stage: "compile", "golden", "analyze"
	attempts int
	ready    chan struct{} // closed once exp/golden/err are final
}

// release closes the unit's experiment, handing its ladder's pooled core
// snapshots back, and drops it and the pruner so the collector can take
// the trace, the ladder and the tables with them. It is the end of every
// unit's life — after the last cell, after a failed attempt, after a
// cancelled run — and of every attempt that is retried.
func (u *prepUnit) release() {
	if u.exp != nil {
		u.exp.Close()
	}
	u.exp, u.pruner = nil, nil
}

// ref names one of the unit's cells.
func (u *prepUnit) ref(t faultinj.Target) CellRef {
	return CellRef{March: u.cfg.Name, Bench: u.bench.Name, Level: u.level.String(), Target: t.Name()}
}

// run prepares the unit with up to retries extra attempts; a cancelled
// context short-circuits pending units. Attempts after the first wait
// out an exponential backoff with jitter (the shared
// internal/dispatch/backoff policy), so a transiently failing compile
// — a briefly full disk, an overloaded host — gets time to clear
// instead of burning every retry back to back.
func (u *prepUnit) run(ctx context.Context) {
	defer close(u.ready)
	for attempt := 0; ; attempt++ {
		u.attempts = attempt + 1
		if err := ctx.Err(); err != nil {
			u.err, u.stage = err, "cancelled"
			return
		}
		u.prepOnce()
		if u.err == nil || attempt >= u.retries {
			return
		}
		if err := u.backoff.Sleep(ctx, attempt, u.jitter); err != nil {
			u.err, u.stage = err, "cancelled"
			return
		}
	}
}

// prepOnce performs one compile + golden-run + (for prune units)
// analysis attempt. With a cache, one unit per key builds the bundle
// (concurrent requesters share it via single-flight) and hit and fill
// paths both decode the serialized bundle (loadBundle), so a warm study
// runs its campaign from exactly the same decoded state a cold one
// does. Panics from any stage are recovered into errors so one bad unit
// cannot take down the study.
func (u *prepUnit) prepOnce() {
	u.release() // a failed attempt may have got as far as an experiment
	u.err = nil
	u.stage = "compile"
	defer func() {
		if r := recover(); r != nil {
			u.err = fmt.Errorf("%s %s %v for %s: panic: %v", u.stage, u.bench.Name, u.level, u.cfg.Name, r)
		}
	}()
	src := u.bench.Source(u.size)
	var prog *machine.Program
	var static *StaticRF // the cached bound, when a bundle carried one
	if u.cache == nil {
		prog, u.exp, u.err = u.compileAndRun(src)
	} else {
		u.stage = "golden" // what a hit's decode errors are filed under
		prog, u.exp, static, u.err = loadBundle(u.cache, u.cacheConfig(src).cacheKey(), u.cfg, u.options(),
			fmt.Sprintf("golden %s %v on %s", u.bench.Name, u.level, u.cfg.Name),
			func() ([]byte, error) { return u.buildBundle(src) })
	}
	if u.err == nil {
		u.finishPrep(prog, static)
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
	prog, err := compileUnit(src, u.bench.Name, u.level, compilerTarget(u.cfg))
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

// buildBundle is the cache fill: it runs the full prep (compile,
// golden run, analysis) and serializes the products. The experiment
// built here is closed — the caller decodes the bundle and rebuilds
// its own, keeping warm and cold paths structurally identical.
func (u *prepUnit) buildBundle(src string) ([]byte, error) {
	prog, exp, err := u.compileAndRun(src)
	if err != nil {
		return nil, err
	}
	defer exp.Close()
	var static *StaticRF
	if u.prune {
		u.stage = "analyze"
		pr, err := u.buildPruner(prog, exp)
		if err != nil {
			return nil, err
		}
		s := staticOf(u.cfg, u.bench.Name, u.level, pr)
		static = &s
		u.stage = "golden" // the bundle is built; decoding it is golden-run work
	}
	return encodePrepBundle(prog, exp.Artifacts(), static), nil
}

// finishPrep derives the prepared unit's golden record, pruner, and
// static bound. static, when non-nil, is the cached bound (bit-identical
// to a fresh computation — the pruner bound is deterministic — so
// either source yields the same study).
func (u *prepUnit) finishPrep(prog *machine.Program, static *StaticRF) {
	u.golden = goldenOf(u.cfg, u.bench.Name, u.level, prog, u.exp)
	u.held = resident{trace: u.exp.Trace.ResidentBytes()}
	if st := u.exp.Artifacts().Stream; st != nil {
		u.held.stream = st.ResidentBytes()
	}
	if !u.prune {
		return
	}
	u.stage = "analyze"
	pr, err := u.buildPruner(prog, u.exp)
	if err != nil {
		u.err = err
		return
	}
	u.pruner = pr
	u.held.pruner = pr.ResidentBytes()
	if static == nil {
		s := staticOf(u.cfg, u.bench.Name, u.level, pr)
		static = &s
	}
	u.static = static
}

// buildPruner runs (or reuses, via the shared analysis cache) the
// binary ACE analysis and wraps it in the unit's three-way pruner.
func (u *prepUnit) buildPruner(prog *machine.Program, exp *faultinj.Experiment) (*binanalysis.DUEPruner, error) {
	tgt := compilerTarget(u.cfg)
	a, err := u.analyses.get(analysisKey{
		bench: u.bench.Name, size: u.size, level: u.level,
		xlen: tgt.XLEN, nregs: tgt.NumArchRegs,
	}, prog.Code)
	if err != nil {
		return nil, fmt.Errorf("analyze %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	pr, err := newPruner(a, exp)
	if err != nil {
		return nil, fmt.Errorf("pruner %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	return pr, nil
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

// analysisKey identifies one compiled binary: the compiler is
// deterministic, so units sharing (bench, size, level, target) share
// code and can share one static analysis. Two marches with the same
// XLEN and register count (or repeated preps after quarantine retries)
// hit the cache instead of re-running the CFG + fixpoints.
type analysisKey struct {
	bench string
	size  int
	level compiler.OptLevel
	xlen  int
	nregs int
}

// analysisCache deduplicates binanalysis.AnalyzeWords calls across the
// prep units of one study. Safe for concurrent use; each entry is
// computed exactly once even when two units race for it.
type analysisCache struct {
	mu sync.Mutex
	m  map[analysisKey]*analysisEntry
}

type analysisEntry struct {
	once sync.Once
	a    *binanalysis.Analysis
	err  error
}

func (c *analysisCache) get(key analysisKey, words []uint32) (*binanalysis.Analysis, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[analysisKey]*analysisEntry)
	}
	e := c.m[key]
	if e == nil {
		e = &analysisEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.a, e.err = binanalysis.AnalyzeWords(words) })
	return e.a, e.err
}

// bytes sums what the cached analyses hold, and counts them; for the
// end of a run, when no entry is still being filled.
func (c *analysisCache) bytes() (total, binaries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.m { //lint:ordered a sum and a count
		if e.a != nil {
			total += e.a.ResidentBytes()
			binaries++
		}
	}
	return total, binaries
}

// resident is what prepared units hold, in bytes by layer.
type resident struct{ trace, stream, pruner int }

func (r resident) total() int { return r.trace + r.stream + r.pruner }

// add adds sign (1 or -1) times o.
func (r *resident) add(o resident, sign int) {
	r.trace += sign * o.trace
	r.stream += sign * o.stream
	r.pruner += sign * o.pruner
}

// flight is the window a study's units pass through, and the account of
// what passed. A unit is in flight from the submission of its
// preparation to its release; the feeder takes a slot before the first
// and the orchestrator gives it back after the second, on every path, so
// what a study holds follows the window and not the number of units.
type flight struct {
	slots chan struct{} // one token per unit in flight

	mu       sync.Mutex
	now, max int      // in flight, and the most there ever were
	held     resident // by the prepared units in flight
	maxHeld  resident // held at its largest
}

// unitHook, when a test sets it, sees every unit as it enters the window
// (released false) and as it leaves, before its slot is free again
// (released true).
var unitHook func(u *prepUnit, released bool)

// admit blocks until a slot is free and takes it for u.
func (f *flight) admit(u *prepUnit) {
	f.slots <- struct{}{}
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

// release ends u's flight: whatever the unit still holds is closed and
// dropped, and its slot goes back to the feeder.
func (f *flight) release(u *prepUnit) {
	u.release()
	f.mu.Lock()
	f.now--
	if u.err == nil {
		f.held.add(u.held, -1)
	}
	f.mu.Unlock()
	if unitHook != nil {
		unitHook(u, true)
	}
	<-f.slots
}

// residency is the end-of-run account of a study's resident set, printed
// beside the journal's and never part of study.json.
type residency struct {
	Units, Window, MaxInFlight int
	Held                       resident // by the prepared units in flight, at its largest
	Analyses, Binaries         int      // the shared analysis cache: bytes, entries
}

func (r residency) String() string {
	mb := func(n int) float64 { return float64(n) / (1 << 20) }
	return fmt.Sprintf("%d units prepared, at most %d in flight (window %d) holding at most %.1f MB trace, %.1f MB checkpoints, %.1f MB pruner tables; analysis cache %.1f MB in %d binaries",
		r.Units, r.MaxInFlight, r.Window, mb(r.Held.trace), mb(r.Held.stream), mb(r.Held.pruner), mb(r.Analyses), r.Binaries)
}

// isCancel reports whether err is context cancellation rather than a
// real failure.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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
		if err := r.jw.Write(kindOutcome, o); err != nil {
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
// (Parallelism: 1) run.
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
	// runCtx cancels the whole engine: external interruption, the first
	// failure in abort (non-KeepGoing) mode, or a journal write error.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	rep := &reporter{fn: s.Progress}
	res := &results{asm: asm, want: want, sink: sink, cancel: cancelRun}
	if s.Journal != "" {
		jw, err := openStudyJournal(s.Journal, s.fingerprint(), res.merge)
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
	analyses := &analysisCache{}
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
					prune: s.Prune, retries: s.Retries, analyses: analyses,
					cache: s.Cache,
					need:  need, cellErr: make([]error, len(need)),
					backoff: s.retryBackoff(),
					jitter:  backoff.NewSource(cellSeed(s.Seed, cfg.Name, bench.Name, level.String(), "retry-jitter")),
					ready:   make(chan struct{}),
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

	// Feed the preparation work through the same pool as the
	// injections: compiles and golden runs for later units overlap with
	// the campaigns of earlier ones. The feeder is its own goroutine
	// because admit blocks while the window is full and Submit while the
	// queue is. The window is workers + 1 units: every worker can be on
	// the cells of its own unit while one more prepares, so two units
	// ending together leave no worker waiting for a golden run; a wider
	// one only holds more, so it is derived, not a knob. Tasks are always
	// enqueued (never dropped on cancellation) so every unit's ready
	// channel is guaranteed to close, and every slot comes back.
	fl := &flight{slots: make(chan struct{}, workers+1)}
	defer func() {
		r := residency{Units: len(units), Window: workers + 1, MaxInFlight: fl.max, Held: fl.maxHeld}
		r.Analyses, r.Binaries = analyses.bytes()
		rep.printf("resident: %s", r)
	}()
	go func() {
		for _, u := range units {
			u := u
			fl.admit(u)
			pool.Submit(func() { u.run(runCtx) })
		}
	}()

	// runCell campaigns one cell of a prepared unit (u.need[i]) and
	// emits its outcome: the result, or — keep-going — the failure that
	// replaced it. A cell cut short by study-wide cancellation emits
	// nothing.
	runCell := func(u *prepUnit, i int) {
		target := u.need[i]
		ref := u.ref(target)
		failure := Failure{March: ref.March, Bench: ref.Bench, Level: ref.Level, Target: ref.Target, Stage: "cell"}
		defer func() {
			if p := recover(); p != nil {
				err := fmt.Errorf("cell %s: panic: %v", ref, p)
				if !s.KeepGoing {
					u.cellErr[i] = err
					cancelRun()
					return
				}
				failure.Err = err.Error()
				res.emit(u, CellFailed(ref, failure))
			}
		}()
		// The watchdog: a per-cell deadline layered on the study
		// context. When it fires, the campaign drains and reports
		// Interrupted while the study is alive.
		cellCtx := runCtx
		cancelCell := func() {}
		if s.CellTimeout > 0 {
			cellCtx, cancelCell = context.WithTimeout(runCtx, s.CellTimeout)
		}
		defer cancelCell()
		r := campaign.Run(u.exp, target, campaign.Options{
			Faults:  s.Faults,
			Seed:    cellSeed(s.Seed, ref.March, ref.Bench, ref.Level, ref.Target),
			Pool:    pool,
			Pruner:  u.pruner,
			Context: cellCtx,
		})
		r.March, r.Bench, r.Level = ref.March, ref.Bench, ref.Level
		if r.Interrupted {
			if runCtx.Err() != nil {
				return // study-wide cancellation: drop the partial cell
			}
			// Watchdog expiry: quarantine the cell as stuck.
			failure.Err, failure.Stuck = "exceeded per-cell wall-clock deadline", true
			res.emit(u, CellFailed(ref, failure))
			rep.printf("  %-16s %-9s %-2s %-9s STUCK after %d/%d injections (watchdog)",
				r.March, r.Bench, r.Level, r.Target, r.Faults, s.Faults)
			return
		}
		res.emit(u, CellOutcome{Cell: ref, Result: r})
		rep.printf("  %-16s %-9s %-2s %-9s AVF %5.1f%%  (SDC %d, crash %d, timeout %d, assert %d)",
			r.March, r.Bench, r.Level, r.Target, r.AVF()*100, r.Counts.SDC, r.Counts.Crash,
			r.Counts.Timeout, r.Counts.Assert)
	}

	// One lightweight orchestrator per unit waits for its prep, then
	// fans the unit's cells out onto the pool. Orchestrators and cell
	// goroutines only wait and aggregate; all heavy work (simulation
	// runs) happens on pool workers, bounding CPU use at `workers`.
	var wg sync.WaitGroup
	for _, u := range units {
		wg.Add(1)
		go func(u *prepUnit) {
			defer wg.Done()
			<-u.ready
			defer fl.release(u)
			if u.err != nil {
				if isCancel(u.err) {
					return
				}
				if !s.KeepGoing {
					cancelRun()
					return
				}
				f := Failure{
					March: u.cfg.Name, Bench: u.bench.Name, Level: u.level.String(),
					Stage: u.stage, Err: u.err.Error(), Retries: u.attempts - 1,
				}
				for _, t := range u.need {
					res.emit(u, unitFailed(u.ref(t), f))
				}
				res.sync()
				rep.printf("FAILED %-16s %-9s %s: %s (quarantined after %d attempt(s))",
					u.cfg.Name, u.bench.Name, u.level, u.err, u.attempts)
				return
			}
			fl.prepared(u)
			rep.printf("golden %-16s %-9s %s: %d cycles (IPC %.2f)",
				u.cfg.Name, u.bench.Name, u.level, u.exp.GoldenCycles, u.exp.GoldenStats.Stats.IPC())
			var cells sync.WaitGroup
			for i := range u.need {
				cells.Add(1)
				go func(i int) {
					defer cells.Done()
					runCell(u, i)
				}(i)
			}
			cells.Wait()
			// Every cell of this unit is done: once they are durable the
			// deferred release hands the unit's golden checkpoint snapshots
			// back to the buffer pools, so the next unit's checkpoints
			// reuse them instead of allocating, and lets go of the rest.
			res.sync()
		}(u)
	}
	wg.Wait()

	// A journal that stopped persisting invalidates the run's
	// durability guarantee; surface it over everything else.
	if res.err != nil {
		return res.err
	}
	// Abort mode: the first failing unit or cell in enumeration order
	// determines the returned error, matching the serial loop.
	if !s.KeepGoing {
		for _, u := range units {
			if u.err != nil && !isCancel(u.err) {
				return u.err
			}
			for _, err := range u.cellErr {
				if err != nil {
					return err
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("study interrupted (completed cells are journaled; rerun with the same spec and journal to resume): %w", err)
	}
	return nil
}

// retryBackoff resolves the preparation-retry pacing policy:
// Spec.RetryBackoff when set, else the shared default.
func (s Spec) retryBackoff() backoff.Policy {
	if s.RetryBackoff != nil {
		return *s.RetryBackoff
	}
	return backoff.Default
}
