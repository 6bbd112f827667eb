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
// again for any line — before anything is restored. A batch of
// injections in cycle order restores, instead of the checkpoint, the
// golden snapshot its previous injection took just before its flip, so
// it replays each checkpoint interval about once. Classifications are
// bit-identical with the optimizations on or off; see DESIGN.md §10 for
// the soundness argument.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// and classifies it on a batch of its own. Batched callers hold one
// batch across many runs instead.
func (e *Experiment) runInjection(t Target, inj Injection, model Model) InjectResult {
	b := e.NewBatch()
	defer b.Close()
	return b.InjectModel(t, inj, model)
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

	// ReplayCycles is the golden cycles simulated from each restore up to
	// the flip, summed over the injections that restored anything.
	ReplayCycles uint64
	// PostFlipCycles is the cycles simulated after the flip, up to the
	// exit the run took; PostFlipByOutcome splits it by the injection's
	// final outcome (every early exit is Masked).
	PostFlipCycles    uint64
	PostFlipByOutcome [NumOutcomes]uint64
}

// FastPathStats returns the counts so far.
func (e *Experiment) FastPathStats() FastPathStats {
	s := FastPathStats{
		DeadQuietInterval: e.exits[exitQuietInterval].Load(),
		DeadRetiredSet:    e.exits[exitRetiredSet].Load(),
		DeadAtFlip:        e.exits[exitDeadAtFlip].Load(),
		ConvergedAtRung:   e.exits[exitConvergedAtRung].Load(),
		RanToEnd:          e.exits[exitRanToEnd].Load(),
		ReplayCycles:      e.replayCycles.Load(),
	}
	for o := range s.PostFlipByOutcome {
		s.PostFlipByOutcome[o] = e.postFlipCycles[o].Load()
		s.PostFlipCycles += s.PostFlipByOutcome[o]
	}
	return s
}

// DeadBeforeReplay is the number of injections answered before anything
// was restored, by either rule.
func (s FastPathStats) DeadBeforeReplay() uint64 { return s.DeadQuietInterval + s.DeadRetiredSet }

// Add adds o's counts to s.
func (s *FastPathStats) Add(o FastPathStats) {
	s.DeadQuietInterval += o.DeadQuietInterval
	s.DeadRetiredSet += o.DeadRetiredSet
	s.DeadAtFlip += o.DeadAtFlip
	s.ConvergedAtRung += o.ConvergedAtRung
	s.RanToEnd += o.RanToEnd
	s.ReplayCycles += o.ReplayCycles
	s.PostFlipCycles += o.PostFlipCycles
	for i, n := range o.PostFlipByOutcome {
		s.PostFlipByOutcome[i] += n
	}
}

func (s FastPathStats) String() string {
	by := s.PostFlipByOutcome
	return fmt.Sprintf("%d dead before replay (%d in a quiet interval, %d in a retired set), %d dead at the flip, %d converged at a checkpoint, %d ran to the end; %d cycles replayed to the flip, %d after it (%d Masked, %d SDC, %d Crash, %d Timeout, %d Assert)",
		s.DeadBeforeReplay(), s.DeadQuietInterval, s.DeadRetiredSet, s.DeadAtFlip, s.ConvergedAtRung, s.RanToEnd,
		s.ReplayCycles, s.PostFlipCycles, by[Masked], by[SDC], by[Crash], by[Timeout], by[Assert])
}

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

// Batch runs a sequence of injections on one held scratch machine and
// walks forward through the golden run as it goes. Each simulated
// injection on the fast path snapshots the machine at the start of its
// flip cycle, after a fault-free replay from a golden image: that
// snapshot is the golden machine of that cycle. The batch keeps it, and
// the next injection restores it instead of its checkpoint when it lies
// between the two (checkpoint ≤ held ≤ injection cycle), so it replays
// only the cycles in between. BatchByCheckpoint's groups are in cycle
// order, so a group run as one batch walks its checkpoint interval
// once. A restore of the snapshot the machine was last based on copies
// back only the lines the previous run touched; one of a different
// image adds the cache chunks in which the two differ.
//
// A Batch is single-goroutine; concurrency comes from running many
// batches on a worker pool. Outcomes are bit-identical to calling
// Experiment.Inject per fault: restores are bit-exact, so neither the
// held machine nor the held snapshot can leak state between runs.
type Batch struct {
	e    *Experiment
	m    *machine.Machine // nil when checkpointing is disabled
	held *machine.Snap    // golden state at the latest flip cycle, or nil
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

// InjectModel is Inject under the given fault-multiplicity model: a
// restore of the latest golden image at or before the injection cycle,
// the flip at that cycle, and the classification.
//
// With the early exit enabled a run is Masked as soon as its state is
// proven to replay golden from some cycle on (DESIGN.md §10), at the
// earliest of three points: before anything is restored, for a
// single-bit cache flip into a set the golden images show quiet; at the
// flip, when the machine still equals the machine of a moment ago, which
// the replay up to there left golden; at a later checkpoint the run
// passes. The last two go by the convergence relation's dead-state
// exclusions; the first also covers live state no later cycle reads.
func (b *Batch) InjectModel(t Target, inj Injection, model Model) InjectResult {
	e, m := b.e, b.m
	if m == nil {
		// Checkpointing disabled: the reference from-zero path, one
		// fresh machine per run (a recycled machine would need a way to
		// reset to cycle 0, which is exactly what checkpoints provide).
		return e.classify(newMachine(e.Config, e.Program).Run(e.cycleBudget(), e.hookFor(t, inj, model)))
	}
	if e.fastExit && model == SingleBit {
		if exit, ok := e.deadBeforeReplay(m, t, inj); ok {
			return e.masked(exit)
		}
	}
	hook := e.hookFor(t, inj, model)
	from := e.ckpts.Latest(inj.Cycle)
	if h := b.held; h != nil && from.Cycle <= h.Cycle && h.Cycle <= inj.Cycle {
		from = h
	}
	start := from.Cycle
	m.Restore(from)
	if !e.fastExit {
		return e.classify(m.Run(e.cycleBudget(), hook))
	}
	flip, dead := hook.Fn, false
	hook.Fn = func(mm *machine.Machine) {
		b.hold(mm.Snapshot())
		flip(mm)
		dead = mm.Converged(b.held)
	}
	res, flipped := m.RunWatched(e.cycleBudget(), []machine.Watch{{At: inj.Cycle, Fn: stopAtFlip}}, hook)
	exit := exitRanToEnd
	switch {
	case !flipped:
		// The run ended before the hook (a cycle past the golden halt) or
		// inside it (a flip that panicked): res is its ending.
	case dead:
		exit = exitDeadAtFlip
	default:
		var converged bool
		if res, converged = m.RunWatched(e.cycleBudget(), e.ckpts.WatchesAfter(inj.Cycle)); converged {
			exit = exitConvergedAtRung
		}
	}
	flipAt := min(res.Cycles, inj.Cycle)
	e.replayCycles.Add(flipAt - start)
	var out InjectResult
	if exit != exitRanToEnd {
		out = e.masked(exit)
	} else {
		e.exits[exitRanToEnd].Add(1)
		out = e.classify(res)
	}
	e.postFlipCycles[out.Outcome].Add(res.Cycles - flipAt)
	return out
}

// hold makes s the batch's held snapshot, releasing the one it replaces.
// The machine may still be based on the old one's cache images; those
// are not pooled, so releasing it cannot disturb the machine.
func (b *Batch) hold(s *machine.Snap) {
	if b.held != nil {
		b.held.Release()
	}
	b.held = s
}

// Close releases the held snapshot and returns the batch's scratch
// machine to the experiment pool. No Inject may follow.
func (b *Batch) Close() {
	if b.held != nil {
		b.held.Release()
		b.held = nil
	}
	if b.m != nil {
		b.e.putMachine(b.m)
		b.m = nil
	}
}

// BatchByCheckpoint partitions injection indices into groups that
// fast-forward from the same checkpoint, in ascending checkpoint order,
// each group in cycle order (index order among equal cycles, so the
// result is deterministic). A group run as one Batch is one forward walk
// through its checkpoint interval. With checkpointing disabled all
// indices form one group — there is nothing to key on, and the grouping
// is only a scheduling hint.
func (e *Experiment) BatchByCheckpoint(inj []Injection) [][]int {
	if len(inj) == 0 {
		return nil
	}
	order := make([]int, len(inj))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(inj[a].Cycle, inj[b].Cycle) })
	if e.ckpts == nil {
		return [][]int{order}
	}
	var out [][]int
	for len(order) > 0 {
		k := e.ckpts.LatestIndex(inj[order[0]].Cycle)
		n := 1
		for n < len(order) && e.ckpts.LatestIndex(inj[order[n]].Cycle) == k {
			n++
		}
		out = append(out, order[:n:n])
		order = order[n:]
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
