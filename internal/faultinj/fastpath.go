package faultinj

// The injection hot path: checkpoint fast-forward, per-worker scratch
// machines, and the early-convergence Masked exit. Every injection used
// to build a fresh machine and simulate from cycle 0; with K golden
// checkpoints per cell an injection at cycle c now restores the latest
// checkpoint at-or-before c (removing ~(1 − 1/2K) of all pre-injection
// simulation across a uniform cycle sample) into a pooled scratch
// machine, and a post-flip run that provably returns to golden state is
// classified Masked at the first matching checkpoint instead of
// simulating its tail — so a denser ladder shortens both ends of a
// Masked run. A flip that lands in dead state is Masked sooner still, at
// the flip cycle; and a cache flip into a set the golden images show was
// not looked up — until the next checkpoint for an invalid line, ever
// again for any line — before anything is restored. Classifications are
// bit-identical with the optimizations on or off; see DESIGN.md §10 for
// the soundness argument.

import (
	"math"

	"sevsim/internal/machine"
)

// DefaultCheckpoints is the per-cell golden checkpoint budget when
// Options.Checkpoints is zero: the stream holds at most this many
// rungs (fewer for a run of a few thousand cycles). Thirty-two
// checkpoints remove ~98% of pre-injection simulation and put a
// convergence probe about every 1/32 of the run. Snapshots are
// copy-on-write (cache line chunks, memory pages), so a rung costs what
// the run touched since the previous one: the whole ladder stays around
// 1–3 MiB per unit on the bundled benchmarks (Stream.ResidentBytes;
// sevinject prints it).
const DefaultCheckpoints = 32

// Options configures experiment preparation beyond the config/program
// pair.
type Options struct {
	// Traced records the golden commit stream, as NewTracedExperiment
	// does; see Experiment.Trace.
	Traced bool

	// Checkpoints is the golden checkpoint budget, an upper bound on
	// the rungs kept: 0 means DefaultCheckpoints, a negative value
	// disables checkpointing entirely (every injection then builds a
	// fresh machine and simulates from cycle 0 — the reference behavior
	// the equivalence tests compare against).
	Checkpoints int

	// NoFastExit disables the early-convergence Masked exit while
	// keeping checkpoint fast-forward.
	NoFastExit bool
}

// cycleBudget is the simulation budget of one injection run:
// timeoutFactor times the golden run plus drain slack, saturating
// instead of wrapping for absurdly long goldens.
func (e *Experiment) cycleBudget() uint64 {
	const slack = 1000
	if e.GoldenCycles > (math.MaxUint64-slack)/timeoutFactor {
		return math.MaxUint64
	}
	return e.GoldenCycles*timeoutFactor + slack
}

// getMachine returns a pooled scratch machine for checkpointed
// injection runs; the caller restores a checkpoint over whatever state
// the machine retired with. Callers on the no-checkpoint reference
// path build fresh machines instead.
func (e *Experiment) getMachine() *machine.Machine {
	if m, _ := e.scratch.Get().(*machine.Machine); m != nil {
		return m
	}
	return newMachine(e.Config, e.Program)
}

// putMachine returns a scratch machine to the pool. It must not be
// called before the machine's Result has been fully consumed
// (Result.Output aliases the core's output buffer).
func (e *Experiment) putMachine(m *machine.Machine) {
	e.scratch.Put(m)
}

// runInjection executes one injection run under the given fault model
// and classifies it, managing a scratch machine for just this run.
// Batched callers hold one machine across many runs instead (Batch).
func (e *Experiment) runInjection(t Target, inj Injection, model Model) InjectResult {
	if e.ckpts == nil {
		// Reference behavior: a fresh machine simulating from cycle 0.
		return e.classify(newMachine(e.Config, e.Program).Run(e.cycleBudget(), e.hookFor(t, inj, model)))
	}
	m := e.getMachine()
	out := e.runInjectionOn(m, t, inj, model)
	e.putMachine(m)
	return out
}

// fastPathExit names the way an injection left the fast path.
type fastPathExit int

const (
	exitQuietInterval fastPathExit = iota
	exitRetiredSet
	exitDeadAtFlip
	exitConvergedAtRung
	exitRanToEnd
	numFastPathExits
)

// FastPathStats counts the injections an experiment's fast path
// classified, by the exit each took. Injections a pruner answered never
// reach it, and the reference paths (checkpointing or the early exit
// off) count nothing. It is telemetry: no result depends on it.
type FastPathStats struct {
	// DeadQuietInterval: a cache flip into an invalid line whose set the
	// checkpoints around it show not looked up in between. Nothing
	// restored or simulated.
	DeadQuietInterval uint64
	// DeadRetiredSet: a cache flip into a set the golden run never looked
	// up again, by its halt image. Nothing restored or simulated.
	DeadRetiredSet uint64
	// DeadAtFlip: the flip changed only state the convergence relation
	// excludes. The pre-flip replay is all that was simulated.
	DeadAtFlip uint64
	// ConvergedAtRung: state equal to golden at a later checkpoint.
	ConvergedAtRung uint64
	// RanToEnd: simulated to halt, crash, assert or timeout.
	RanToEnd uint64
}

// FastPathStats returns the counts so far.
func (e *Experiment) FastPathStats() FastPathStats {
	return FastPathStats{
		DeadQuietInterval: e.exits[exitQuietInterval].Load(),
		DeadRetiredSet:    e.exits[exitRetiredSet].Load(),
		DeadAtFlip:        e.exits[exitDeadAtFlip].Load(),
		ConvergedAtRung:   e.exits[exitConvergedAtRung].Load(),
		RanToEnd:          e.exits[exitRanToEnd].Load(),
	}
}

// DeadBeforeReplay is the number of injections answered before anything
// was restored, by either rule.
func (s FastPathStats) DeadBeforeReplay() uint64 { return s.DeadQuietInterval + s.DeadRetiredSet }

// masked is the result of a run proven to replay golden from some cycle
// on: it would halt at GoldenCycles with the golden output, so this is
// exactly what the full run would have produced.
func (e *Experiment) masked(exit fastPathExit) InjectResult {
	e.exits[exit].Add(1)
	return InjectResult{Outcome: Masked, Cycles: e.GoldenCycles}
}

// deadBeforeReplay asks the target to answer a single-bit flip from the
// golden images around the injection cycle and at the halt, and names
// the rule that did. The last interval has no later checkpoint, so the
// halt image stands in for one.
func (e *Experiment) deadBeforeReplay(m *machine.Machine, t Target, inj Injection) (fastPathExit, bool) {
	at := e.ckpts.LatestIndex(inj.Cycle)
	if t.deadBefore == nil || at < 0 {
		return 0, false
	}
	rungs, halt := e.ckpts.Snaps(), e.ckpts.Halt()
	next := halt
	if at+1 < len(rungs) {
		next = &rungs[at+1].CacheImages
	}
	return t.deadBefore(m, &rungs[at].CacheImages, next, halt, inj.Bit)
}

// stopAtFlip is the watch that ends the pre-flip leg of a run: watches
// fire after the hooks of their cycle, so it stops the machine with the
// flip just applied.
func stopAtFlip(*machine.Machine) bool { return true }

// runInjectionOn executes one checkpointed injection run on the given
// scratch machine: fast-forward restore, flip at the injection cycle,
// classify. The machine must have been built from this experiment's
// Config/Program; its pre-call state is irrelevant — the restore
// overwrites it. Only valid with checkpointing on.
//
// With the early exit enabled a run is Masked as soon as its state is
// proven to replay golden from some cycle on (DESIGN.md §10), at the
// earliest of three points: before anything is restored, for a
// single-bit cache flip into a set the golden images show quiet; at the
// flip, when the machine still equals the machine of a moment ago, which
// the replay up to there left golden; at a later checkpoint the run
// passes. The last two go by the convergence relation's dead-state
// exclusions; the first also covers live state no later cycle reads.
func (e *Experiment) runInjectionOn(m *machine.Machine, t Target, inj Injection, model Model) InjectResult {
	if e.fastExit && model == SingleBit {
		if exit, ok := e.deadBeforeReplay(m, t, inj); ok {
			return e.masked(exit)
		}
	}
	hook := e.hookFor(t, inj, model)
	m.Restore(e.ckpts.Latest(inj.Cycle))
	if !e.fastExit {
		return e.classify(m.Run(e.cycleBudget(), hook))
	}
	flip, dead := hook.Fn, false
	hook.Fn = func(mm *machine.Machine) {
		pre := mm.Snapshot()
		flip(mm)
		dead = mm.Converged(pre)
		pre.Release()
	}
	res, flipped := m.RunWatched(e.cycleBudget(), []machine.Watch{{At: inj.Cycle, Fn: stopAtFlip}}, hook)
	switch {
	case !flipped:
		// The run ended before the hook (a cycle past the golden halt) or
		// inside it (a flip that panicked): res is its ending.
	case dead:
		return e.masked(exitDeadAtFlip)
	default:
		var converged bool
		if res, converged = m.RunWatched(e.cycleBudget(), e.ckpts.WatchesAfter(inj.Cycle)); converged {
			return e.masked(exitConvergedAtRung)
		}
	}
	e.exits[exitRanToEnd].Add(1)
	return e.classify(res)
}

// Batch runs a sequence of injections on one held scratch machine.
// Grouping a batch by fast-forward checkpoint (BatchByCheckpoint) makes
// every restore after the first copy back only the lines the previous
// run touched; a restore from a different checkpoint adds the cache
// chunks in which the two checkpoints differ. A Batch
// is single-goroutine; concurrency comes from running many batches on a
// worker pool. Outcomes are bit-identical to calling Experiment.Inject
// per fault — restores are bit-exact, so machine reuse cannot leak
// state between runs.
type Batch struct {
	e *Experiment
	m *machine.Machine // nil when checkpointing is disabled
}

// NewBatch prepares a batch, drawing a scratch machine from the
// experiment's pool. Close must be called to return it.
func (e *Experiment) NewBatch() *Batch {
	b := &Batch{e: e}
	if e.ckpts != nil {
		b.m = e.getMachine()
	}
	return b
}

// Inject runs one single-bit injection on the batch's machine.
func (b *Batch) Inject(t Target, inj Injection) InjectResult {
	return b.InjectModel(t, inj, SingleBit)
}

// InjectModel is Inject under the given fault-multiplicity model.
func (b *Batch) InjectModel(t Target, inj Injection, model Model) InjectResult {
	if b.m == nil {
		// Checkpointing disabled: the reference from-zero path, one
		// fresh machine per run (a recycled machine would need a way to
		// reset to cycle 0, which is exactly what checkpoints provide).
		return b.e.runInjection(t, inj, model)
	}
	return b.e.runInjectionOn(b.m, t, inj, model)
}

// Close returns the batch's scratch machine to the experiment pool. No
// Inject may follow.
func (b *Batch) Close() {
	if b.m != nil {
		b.e.putMachine(b.m)
		b.m = nil
	}
}

// BatchByCheckpoint partitions injection indices into groups that
// fast-forward from the same checkpoint, preserving index order within
// each group (first-seen checkpoint order across groups, so the result
// is deterministic). Running a group as one Batch keeps the scratch
// machine's restore base stable across the whole group. With
// checkpointing disabled all indices form one group — there is nothing
// to key on, and the grouping is only a scheduling hint.
func (e *Experiment) BatchByCheckpoint(inj []Injection) [][]int {
	if len(inj) == 0 {
		return nil
	}
	if e.ckpts == nil {
		all := make([]int, len(inj))
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	groups := map[int][]int{}
	var order []int
	for i, in := range inj {
		k := e.ckpts.LatestIndex(in.Cycle)
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := make([][]int, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out
}

// Close releases the experiment's checkpoint snapshots back to their
// buffer pools. Call it only after every injection, batch, and watch
// using the experiment has finished. Injecting after Close remains
// correct — the experiment falls back to the from-zero reference path —
// but loses fast-forward, so treat Close as end-of-life.
func (e *Experiment) Close() {
	if e.ckpts != nil {
		e.ckpts.Release()
		e.ckpts = nil
	}
}
