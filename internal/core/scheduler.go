// Study-level parallel execution engine. Run pipelines the compile +
// golden-run preparation of every (march, bench, level) unit and
// dispatches every cell's injections onto one shared bounded worker
// pool, so cores stay busy across cell boundaries.
//
// Determinism: every result lands at the slice index the serial loop
// would have used, and every cell samples with the same cellSeed, so a
// saved study is byte-identical to a serial run regardless of
// Parallelism.
//
// Crash tolerance: with Spec.Journal set, every finished golden and
// cell is durably appended as it completes and replayed on restart, so
// a study killed at any point resumes where it left off and still
// saves byte-identical output. RunContext makes the whole engine
// cancellable (SIGINT flows in as context cancellation: dispatch
// stops, in-flight injections drain, the journal is flushed), and
// Spec.KeepGoing quarantines failed units into Study.Failed instead of
// aborting the run.
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
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// compileUnit is the compile entry point, indirected so fault-tolerance
// tests can inject compile failures into chosen units.
var compileUnit = compiler.Compile

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
	cfg         machine.Config
	bench       workloads.Benchmark
	size        int
	level       compiler.OptLevel
	prune       bool
	retries     int
	checkpoints int
	noFastExit  bool
	analyses    *analysisCache  // shared across the study's prune units
	cache       *artcache.Cache // nil: prep directly, nothing persisted

	// want selects the unit's targets to campaign (parallel to the
	// spec's Targets); RunContext wants everything, RunCells only the
	// requested subset.
	want []bool

	// Retry pacing between failed preparation attempts: the shared
	// exponential-backoff policy, jittered from a deterministic
	// per-unit seed so retry schedules reproduce run to run.
	backoff backoff.Policy
	jitter  *backoff.Source

	exp      *faultinj.Experiment
	golden   Golden
	pruner   faultinj.Pruner // non-nil only for prune units
	static   StaticRF
	err      error
	stage    string // failing stage: "compile", "golden", "analyze"
	attempts int
	ready    chan struct{} // closed once exp/golden/err are final

	// Resume / quarantine bookkeeping.
	skip          bool               // fully satisfied by the journal; no prep, no cells
	goldenFromLog bool               // golden replayed; do not re-append it
	replayed      []*campaign.Result // per-target journaled cells (nil = must run)
	failure       *Failure           // unit-level quarantine (replayed or new)
	cellFailures  []*Failure         // per-target quarantines (stuck cells, panics)
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
// analysis attempt, consulting the artifact cache when the study has
// one. Panics from any stage are recovered into errors so one bad unit
// cannot take down the study.
func (u *prepUnit) prepOnce() {
	u.err, u.exp, u.pruner = nil, nil, nil
	u.stage = "compile"
	defer func() {
		if r := recover(); r != nil {
			u.err = fmt.Errorf("%s %s %v for %s: panic: %v", u.stage, u.bench.Name, u.level, u.cfg.Name, r)
		}
	}()
	if u.cache == nil {
		u.prepDirect()
		return
	}
	u.prepCached()
}

// prepDirect is the uncached prep path: compile, golden run, and
// analysis run in-process with nothing persisted.
func (u *prepUnit) prepDirect() {
	tgt := compilerTarget(u.cfg)
	prog, err := compileUnit(u.bench.Source(u.size), u.bench.Name, u.level, tgt)
	if err != nil {
		u.err = fmt.Errorf("compile %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
		return
	}
	u.stage = "golden"
	exp, err := faultinj.NewExperimentOptions(u.cfg, prog, faultinj.Options{
		Traced:      u.prune,
		Checkpoints: u.checkpoints,
		NoFastExit:  u.noFastExit,
	})
	if err != nil {
		u.err = fmt.Errorf("golden %s %v on %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
		return
	}
	u.finishPrep(prog, exp, nil)
}

// prepCached preps through the artifact cache: one unit per key builds
// the bundle (concurrent requesters share it via single-flight), and
// *both* hit and fill paths decode the serialized bundle, so a warm
// study runs its campaign from exactly the same decoded state a cold
// one does. A bundle that passed the cache's checksum but fails
// semantic validation here (stale layout, mismatched geometry) is
// dropped and rebuilt once before giving up.
func (u *prepUnit) prepCached() {
	src := u.bench.Source(u.size)
	key := u.cacheConfig(src).cacheKey()
	for attempt := 0; ; attempt++ {
		blob, err := u.cache.GetOrFill(key, func() ([]byte, error) {
			return u.buildBundle(src)
		})
		if err != nil {
			u.err = err
			return
		}
		u.stage = "golden"
		prog, art, static, err := decodePrepBundle(blob, u.cfg)
		if err == nil {
			var exp *faultinj.Experiment
			exp, err = faultinj.NewExperimentFromArtifacts(u.cfg, prog, art, faultinj.Options{NoFastExit: u.noFastExit})
			if err == nil {
				u.finishPrep(prog, exp, static)
				return
			}
		}
		u.cache.Drop(key)
		if attempt > 0 {
			u.err = fmt.Errorf("golden %s %v on %s: cached prep bundle unusable after rebuild: %w",
				u.bench.Name, u.level, u.cfg.Name, err)
			return
		}
	}
}

// buildBundle is the cache fill: it runs the full prep (compile,
// golden run, analysis) and serializes the products. The experiment
// built here is closed — the caller decodes the bundle and rebuilds
// its own, keeping warm and cold paths structurally identical.
func (u *prepUnit) buildBundle(src string) ([]byte, error) {
	u.stage = "compile"
	tgt := compilerTarget(u.cfg)
	prog, err := compileUnit(src, u.bench.Name, u.level, tgt)
	if err != nil {
		return nil, fmt.Errorf("compile %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	u.stage = "golden"
	exp, err := faultinj.NewExperimentOptions(u.cfg, prog, faultinj.Options{
		Traced:      u.prune,
		Checkpoints: u.checkpoints,
		NoFastExit:  u.noFastExit,
	})
	if err != nil {
		return nil, fmt.Errorf("golden %s %v on %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
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
	}
	return encodePrepBundle(prog, exp.Artifacts(), static), nil
}

// finishPrep installs a prepared experiment and derives the unit's
// golden record, pruner, and static bound. static, when non-nil, is
// the cached bound (bit-identical to a fresh computation — the pruner
// bound is deterministic — so either source yields the same study).
func (u *prepUnit) finishPrep(prog *machine.Program, exp *faultinj.Experiment, static *StaticRF) {
	u.exp = exp
	u.golden = goldenOf(u.cfg, u.bench.Name, u.level, prog, exp)
	if !u.prune {
		return
	}
	u.stage = "analyze"
	pr, err := u.buildPruner(prog, exp)
	if err != nil {
		u.err = err
		return
	}
	u.pruner = pr
	if static != nil {
		u.static = *static
	} else {
		u.static = staticOf(u.cfg, u.bench.Name, u.level, pr)
	}
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
	pr, err := binanalysis.NewDUEPruner(a, exp)
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

// isCancel reports whether err is context cancellation rather than a
// real failure.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// skippedCell is the deterministic placeholder recorded for every cell
// of a quarantined unit. It is derived (not journaled), so an initial
// run and a resumed run produce identical bytes.
func skippedCell(f Failure, target string) campaign.Result {
	return campaign.Result{
		March: f.March, Bench: f.Bench, Level: f.Level, Target: target,
		Skipped: "unit " + f.Stage + " failed: " + f.Err,
	}
}

// quarantineUnit fills a failed unit's golden and cell slots with
// deterministic placeholders.
func quarantineUnit(st *Study, targets []faultinj.Target, ui int, f Failure) {
	st.Goldens[ui] = Golden{March: f.March, Bench: f.Bench, Level: f.Level}
	if st.Static != nil {
		st.Static[ui] = StaticRF{March: f.March, Bench: f.Bench, Level: f.Level}
	}
	nt := len(targets)
	for ti, t := range targets {
		st.Results[ui*nt+ti] = skippedCell(f, t.Name())
	}
}

// replayInto fills study slots from the journal's replay state and
// marks fully-satisfied units for skipping. Returns how many cells
// were replayed.
func (s Spec) replayInto(st *Study, units []*prepUnit, rs *replayState) int {
	if rs.empty() {
		return 0
	}
	nt := len(s.Targets)
	replayed := 0
	for ui, u := range units {
		if u.skip {
			continue // no selected targets; nothing to replay into
		}
		ukey := cellKey{u.cfg.Name, u.bench.Name, u.level.String(), ""}
		if f, ok := rs.failures[ukey]; ok {
			f := f
			u.failure = &f
			u.skip = true
			quarantineUnit(st, s.Targets, ui, f)
			replayed += nt
			continue
		}
		complete := true
		for ti, t := range s.Targets {
			ckey := cellKey{u.cfg.Name, u.bench.Name, u.level.String(), t.Name()}
			c, ok := rs.cells[ckey]
			if !ok {
				if u.want[ti] {
					complete = false
				}
				continue
			}
			u.replayed[ti] = &c
			st.Results[ui*nt+ti] = c
			replayed++
			if cf, ok := rs.failures[ckey]; ok { // e.g. a stuck cell
				cf := cf
				u.cellFailures[ti] = &cf
			}
		}
		if g, ok := rs.goldens[ukey]; ok {
			u.goldenFromLog = true
			u.golden = g.Golden
			st.Goldens[ui] = g.Golden
			if g.Static != nil {
				u.static = *g.Static
				if st.Static != nil {
					st.Static[ui] = *g.Static
				}
			}
			if complete {
				u.skip = true
			}
		}
	}
	return replayed
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
	st, _, err := s.run(ctx, nil)
	return st, err
}

// selection picks a subset of a spec's campaign cells (keyed with an
// empty Target field never set). nil selects everything — the
// historical full-study behavior.
type selection map[cellKey]bool

// run is the engine shared by RunContext (sel nil: the whole study)
// and RunCells (sel restricts the work to the requested cells' units
// and targets). The returned Study always has the full canonical
// layout — unit i owns Goldens[i] and Results[i*nt ... (i+1)*nt) — so
// a partial run's outcomes land at the exact indices a full run would
// use; unselected slots are left zero. The returned units expose
// per-unit failure and replay bookkeeping for outcome extraction.
func (s Spec) run(ctx context.Context, sel selection) (*Study, []*prepUnit, error) {
	st := &Study{Faults: s.Faults}
	for _, m := range s.Machines {
		st.MachineNames = append(st.MachineNames, m.Name)
	}
	for _, b := range s.Benchmarks {
		st.BenchNames = append(st.BenchNames, b.Name)
	}
	for _, l := range s.Levels {
		st.LevelNames = append(st.LevelNames, l.String())
	}
	for _, t := range s.Targets {
		st.TargetNames = append(st.TargetNames, t.Name())
	}

	// Enumerate prep units in the serial loop's order; unit i owns
	// Goldens[i] and Results[i*len(Targets) ... (i+1)*len(Targets)).
	// A unit none of whose targets are selected is skipped outright.
	sizes := s.resolveSizes()
	analyses := &analysisCache{}
	var units []*prepUnit
	for _, cfg := range s.Machines {
		for bi, bench := range s.Benchmarks {
			for _, level := range s.Levels {
				u := &prepUnit{
					cfg: cfg, bench: bench, size: sizes[bi], level: level,
					prune: s.Prune, retries: s.Retries, analyses: analyses,
					checkpoints: s.Checkpoints, noFastExit: s.NoFastExit,
					cache:        s.Cache,
					backoff:      s.retryBackoff(),
					jitter:       backoff.NewSource(cellSeed(s.Seed, cfg.Name, bench.Name, level.String(), "retry-jitter")),
					ready:        make(chan struct{}),
					want:         make([]bool, len(s.Targets)),
					replayed:     make([]*campaign.Result, len(s.Targets)),
					cellFailures: make([]*Failure, len(s.Targets)),
				}
				any := false
				for ti, t := range s.Targets {
					u.want[ti] = sel == nil || sel[cellKey{cfg.Name, bench.Name, level.String(), t.Name()}]
					any = any || u.want[ti]
				}
				u.skip = !any
				units = append(units, u)
			}
		}
	}
	if len(units) == 0 {
		return st, units, nil
	}
	nt := len(s.Targets)
	st.Goldens = make([]Golden, len(units))
	st.Results = make([]campaign.Result, len(units)*nt)
	if s.Prune {
		st.Static = make([]StaticRF, len(units))
	}

	// runCtx cancels the whole engine: external interruption, the first
	// failure in abort (non-KeepGoing) mode, or a journal write error.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	rep := &reporter{fn: s.Progress}
	var jn *studyJournal
	if s.Journal != "" {
		var rs *replayState
		var err error
		jn, rs, err = openStudyJournal(s.Journal, s.fingerprint(), cancelRun)
		if err != nil {
			return nil, nil, err
		}
		defer jn.close()
		if n := s.replayInto(st, units, rs); n > 0 {
			rep.printf("resume: %d/%d cells replayed from journal %s", n, len(units)*nt, s.Journal)
		}
	}

	workers := s.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := campaign.NewPool(workers)
	defer pool.Close()

	// cellPanics collects recovered per-cell panics for abort mode, at
	// deterministic indices so the first one in enumeration order wins.
	cellPanics := make([]error, len(units)*nt)

	// Feed the preparation work through the same pool as the
	// injections: compiles and golden runs for later units overlap with
	// the campaigns of earlier ones. The feeder is its own goroutine
	// because Submit blocks when the queue is full. Tasks are always
	// enqueued (never dropped on cancellation) so every unit's ready
	// channel is guaranteed to close.
	go func() {
		for _, u := range units {
			if u.skip {
				continue
			}
			u := u
			pool.Submit(func() { u.run(runCtx) })
		}
	}()

	// One lightweight orchestrator per unit waits for its prep, then
	// fans the unit's cells out onto the pool. Orchestrators and cell
	// goroutines only wait and aggregate; all heavy work (simulation
	// runs) happens on pool workers, bounding CPU use at `workers`.
	var wg sync.WaitGroup
	for ui, u := range units {
		if u.skip {
			continue
		}
		wg.Add(1)
		go func(ui int, u *prepUnit) {
			defer wg.Done()
			<-u.ready
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
				u.failure = &f
				jn.appendFailure(f)
				quarantineUnit(st, s.Targets, ui, f)
				rep.printf("FAILED %-16s %-9s %s: %s (quarantined after %d attempt(s))",
					u.cfg.Name, u.bench.Name, u.level, u.err, u.attempts)
				return
			}
			st.Goldens[ui] = u.golden
			if s.Prune {
				st.Static[ui] = u.static
			}
			if !u.goldenFromLog {
				var static *StaticRF
				if s.Prune {
					sc := u.static
					static = &sc
				}
				jn.appendGolden(u.golden, static)
			}
			rep.printf("golden %-16s %-9s %s: %d cycles (IPC %.2f)",
				u.cfg.Name, u.bench.Name, u.level, u.exp.GoldenCycles, u.exp.GoldenStats.Stats.IPC())
			var cells sync.WaitGroup
			for ti, target := range s.Targets {
				if !u.want[ti] {
					continue // not selected by this run
				}
				if u.replayed[ti] != nil {
					continue // landed in st.Results during replay
				}
				cells.Add(1)
				go func(ti int, target faultinj.Target) {
					defer cells.Done()
					defer func() {
						if p := recover(); p != nil {
							err := fmt.Errorf("cell %s/%s/%s/%s: panic: %v",
								u.cfg.Name, u.bench.Name, u.level, target.Name(), p)
							if !s.KeepGoing {
								cellPanics[ui*nt+ti] = err
								cancelRun()
								return
							}
							f := Failure{
								March: u.cfg.Name, Bench: u.bench.Name, Level: u.level.String(),
								Target: target.Name(), Stage: "cell", Err: err.Error(),
							}
							u.cellFailures[ti] = &f
							cell := campaign.Result{
								March: f.March, Bench: f.Bench, Level: f.Level, Target: f.Target,
								Skipped: "cell failed: " + err.Error(),
							}
							st.Results[ui*nt+ti] = cell
							jn.appendFailure(f)
							jn.appendCell(cell)
						}
					}()
					// The watchdog: a per-cell deadline layered on the
					// study context. When it fires, the campaign drains
					// and reports Interrupted while the study is alive.
					cellCtx := runCtx
					cancelCell := func() {}
					if s.CellTimeout > 0 {
						cellCtx, cancelCell = context.WithTimeout(runCtx, s.CellTimeout)
					}
					defer cancelCell()
					r := campaign.Run(u.exp, target, campaign.Options{
						Faults:  s.Faults,
						Seed:    cellSeed(s.Seed, u.cfg.Name, u.bench.Name, u.level.String(), target.Name()),
						Pool:    pool,
						Pruner:  u.pruner,
						Context: cellCtx,
					})
					r.March = u.cfg.Name
					r.Bench = u.bench.Name
					r.Level = u.level.String()
					if r.Interrupted {
						if runCtx.Err() != nil {
							return // study-wide cancellation: drop the partial cell
						}
						// Watchdog expiry: quarantine the cell as stuck.
						f := Failure{
							March: r.March, Bench: r.Bench, Level: r.Level, Target: r.Target,
							Stage: "cell", Err: "exceeded per-cell wall-clock deadline", Stuck: true,
						}
						stuck := campaign.Result{
							March: r.March, Bench: r.Bench, Level: r.Level, Target: r.Target,
							Skipped: "stuck: exceeded per-cell wall-clock deadline",
						}
						u.cellFailures[ti] = &f
						st.Results[ui*nt+ti] = stuck
						jn.appendFailure(f)
						jn.appendCell(stuck)
						rep.printf("  %-16s %-9s %-2s %-9s STUCK after %d/%d injections (watchdog)",
							r.March, r.Bench, r.Level, r.Target, r.Faults, s.Faults)
						return
					}
					st.Results[ui*nt+ti] = r
					jn.appendCell(r)
					rep.printf("  %-16s %-9s %-2s %-9s AVF %5.1f%%  (SDC %d, crash %d, timeout %d, assert %d)",
						r.March, r.Bench, r.Level, r.Target, r.AVF()*100, r.Counts.SDC, r.Counts.Crash,
						r.Counts.Timeout, r.Counts.Assert)
				}(ti, target)
			}
			cells.Wait()
			// Every cell of this unit is done: hand the unit's golden
			// checkpoint snapshots back to the buffer pools so the next
			// unit's checkpoints reuse them instead of allocating.
			u.exp.Close()
		}(ui, u)
	}
	wg.Wait()

	// A journal that stopped persisting invalidates the run's
	// durability guarantee; surface it over everything else.
	if err := jn.firstErr(); err != nil {
		return nil, nil, err
	}
	// Abort mode: the first failing unit or cell in enumeration order
	// determines the returned error, matching the serial loop.
	if !s.KeepGoing {
		for ui, u := range units {
			if u.err != nil && !isCancel(u.err) {
				return nil, nil, u.err
			}
			for ti := 0; ti < nt; ti++ {
				if err := cellPanics[ui*nt+ti]; err != nil {
					return nil, nil, err
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("study interrupted (completed cells are journaled; rerun with the same spec and journal to resume): %w", err)
	}
	// Assemble quarantine records in deterministic unit order.
	for _, u := range units {
		if u.failure != nil {
			st.Failed = append(st.Failed, *u.failure)
		}
		for _, cf := range u.cellFailures {
			if cf != nil {
				st.Failed = append(st.Failed, *cf)
			}
		}
	}
	return st, units, nil
}

// retryBackoff resolves the preparation-retry pacing policy:
// Spec.RetryBackoff when set, else the shared default.
func (s Spec) retryBackoff() backoff.Policy {
	if s.RetryBackoff != nil {
		return *s.RetryBackoff
	}
	return backoff.Default
}
