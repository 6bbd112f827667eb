// Package campaign drives statistical fault-injection campaigns: for a
// (microarchitecture, benchmark, optimization level, structure field)
// cell it runs N independent end-to-end injections in parallel and
// aggregates the outcome counts. The cells of one experiment run as one
// campaign (RunUnit), so their injections share each walk through the
// golden run. Campaigns can share one bounded Pool so a whole study
// saturates the machine with a single worker set instead of nested
// per-cell pools.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sevsim/internal/faultinj"
)

// Pool is a bounded worker pool for injection-sized tasks. One pool is
// shared across every campaign cell of a study: workers pull tasks from
// a single queue, so cores never idle while any cell still has work.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup
}

// NewPool starts a pool with the given number of workers (<= 0:
// GOMAXPROCS). Close must be called to release the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func(), 4*workers)}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// Submit enqueues one task, blocking while the queue is full. Tasks
// must not Submit to or wait on the same pool, or workers can deadlock.
func (p *Pool) Submit(fn func()) { p.tasks <- fn }

// TrySubmit enqueues one task unless ctx is cancelled first; it reports
// whether the task was enqueued. Cancellation is checked before
// blocking, so a cancelled context never enqueues more work.
func (p *Pool) TrySubmit(ctx context.Context, fn func()) bool {
	if ctx.Err() != nil {
		return false
	}
	select {
	case p.tasks <- fn:
		return true
	case <-ctx.Done():
		return false
	}
}

// Close drains the queue and stops the workers after all submitted
// tasks have run. No Submit may follow or race with Close.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// Counts aggregates outcomes of one campaign.
type Counts struct {
	Masked  int
	SDC     int
	Crash   int
	Timeout int
	Assert  int
	// Unexpected counts asserts that came from recovered simulator
	// panics rather than modelled invariant checks (should stay zero).
	Unexpected int
	// Pruned counts the outcomes that were proven statically and never
	// simulated. PrunedReg and PrunedBit split the provably-Masked
	// proofs by granularity — whole-register deadness vs bit-level
	// deadness of a live register — and are subsets of Masked;
	// PrunedDUE counts injections the propagation analysis proved
	// crash-certain, a subset of Crash. PrunedReg + PrunedBit +
	// PrunedDUE == Pruned when the pruner reports kinds; a plain
	// Pruner's proofs count as register-granular Masked.
	Pruned    int
	PrunedReg int
	PrunedBit int
	PrunedDUE int
}

// Total returns the number of injections behind the counts.
func (c Counts) Total() int {
	return c.Masked + c.SDC + c.Crash + c.Timeout + c.Assert
}

// Add accumulates one classified outcome.
func (c *Counts) Add(r faultinj.InjectResult) {
	switch r.Outcome {
	case faultinj.Masked:
		c.Masked++
	case faultinj.SDC:
		c.SDC++
	case faultinj.Crash:
		c.Crash++
	case faultinj.Timeout:
		c.Timeout++
	default:
		c.Assert++
	}
	if r.Unexpected {
		c.Unexpected++
	}
	if r.Pruned {
		c.Pruned++
		switch r.PruneKind {
		case faultinj.PruneBit:
			c.PrunedBit++
		case faultinj.PruneDUE:
			c.PrunedDUE++
		default:
			c.PrunedReg++
		}
	}
}

// consultPruner asks the pruner about one injection, preferring the
// granularity-aware interface; a plain Pruner's proofs count as
// register-granular (the only granularity that existed before kinds).
func consultPruner(p faultinj.Pruner, t faultinj.Target, inj faultinj.Injection) (faultinj.PruneKind, string) {
	if kp, ok := p.(faultinj.KindPruner); ok {
		return kp.PrunableKind(t, inj)
	}
	ok, reason := p.Prunable(t, inj)
	if ok {
		return faultinj.PruneReg, reason
	}
	return faultinj.PruneNone, reason
}

// Of returns the count of one outcome class.
func (c Counts) Of(o faultinj.Outcome) int {
	switch o {
	case faultinj.Masked:
		return c.Masked
	case faultinj.SDC:
		return c.SDC
	case faultinj.Crash:
		return c.Crash
	case faultinj.Timeout:
		return c.Timeout
	default:
		return c.Assert
	}
}

// Result is one campaign cell's outcome.
type Result struct {
	March  string
	Bench  string
	Level  string
	Target string

	Faults       int
	Counts       Counts
	GoldenCycles uint64
	StructBits   uint64

	// Skipped carries the reason when the cell could not be sampled
	// (e.g. a target with zero injectable bits); such cells report zero
	// faults instead of aborting the study.
	Skipped string `json:",omitempty"`

	// Interrupted is set when the campaign's context was cancelled
	// before every injection ran: Faults and Counts then cover only the
	// injections that completed. Interrupted cells are partial data and
	// are never journaled or saved by the study engine.
	Interrupted bool `json:",omitempty"`
}

// AVF returns the architectural vulnerability factor measured by the
// campaign: the probability that an injected fault was not masked.
func (r Result) AVF() float64 {
	if r.Faults == 0 {
		return 0
	}
	return float64(r.Faults-r.Counts.Masked) / float64(r.Faults)
}

// ClassRate returns the per-class vulnerability contribution (class
// count over total injections), so that the rates of the four
// non-masked classes sum to the AVF.
func (r Result) ClassRate(o faultinj.Outcome) float64 {
	if r.Faults == 0 {
		return 0
	}
	return float64(r.Counts.Of(o)) / float64(r.Faults)
}

// Options tunes a campaign run.
type Options struct {
	Faults int
	// Seed is Run's sampling seed; RunUnit takes one per Cell instead.
	Seed        int64
	Parallelism int // <= 0: GOMAXPROCS; ignored when Pool is set
	// Pool, when non-nil, is the shared worker pool the injections run
	// on; the cell then borrows study-wide workers instead of spawning
	// its own. When nil, Run uses a transient pool of Parallelism
	// workers, preserving the standalone behavior.
	Pool *Pool
	// Model selects the fault multiplicity (default single-bit).
	Model faultinj.Model
	// Pruner, when non-nil, is consulted before each injection: a fault
	// it proves masked is recorded as Masked (with Counts.Pruned
	// incremented) without running the simulation. Only single-bit
	// campaigns are pruned — the static argument covers one bit in one
	// physical register, so any wider Model bypasses the pruner.
	Pruner faultinj.Pruner
	// Context, when non-nil, makes the campaign cancellable: once it is
	// done, no further injections are dispatched, in-flight injections
	// finish, and the Result comes back with Interrupted set and counts
	// covering only the completed injections. A nil Context never
	// cancels, preserving the historical behavior.
	Context context.Context
}

// Run executes one campaign cell: Faults injections into target, in
// parallel, deterministically derived from Seed. Outcome counts are
// independent of worker count and scheduling order: injection i of a
// cell is fully determined by (Seed, i). When Options.Context is
// cancelled mid-campaign, dispatch stops, in-flight injections drain,
// and the partial Result is marked Interrupted. Run is RunUnit with one
// cell; a panic while sampling the cell is raised again here.
func Run(exp *faultinj.Experiment, target faultinj.Target, opts Options) Result {
	var res Result
	var failed error
	RunUnit(exp, []Cell{{Target: target, Seed: opts.Seed}}, opts, func(_ int, r Result, err error) {
		res, failed = r, err
	})
	if failed != nil {
		panic(failed)
	}
	return res
}

// Cell is one target of a unit campaign: the target and the seed its
// injections are sampled with.
type Cell struct {
	Target faultinj.Target
	Seed   int64
}

// RunUnit runs the cells of one experiment as one campaign. Each cell is
// sampled with its own seed, exactly as Run samples it alone, so its
// Result is the one Run would return. The injections of all cells are
// then grouped by checkpoint (Experiment.BatchByCheckpoint), each group
// in cycle order, and dispatched in chunks that each run on one
// faultinj.Batch: the batch walks forward through the checkpoint
// interval, every injection restoring the golden snapshot the previous
// one took at its flip, so the interval is simulated about once for all
// cells instead of once per injection.
//
// done is called once per cell with its index and Result the moment its
// last injection lands: on a pool worker, concurrently with other cells'
// calls, so it must not Submit to or wait on the pool. Once
// Options.Context ends, every unfinished cell runs no more injections and
// comes back Interrupted. err is set, and the Result empty, when sampling
// the cell panicked; the other cells go on. RunUnit returns when every
// cell has been reported.
func RunUnit(exp *faultinj.Experiment, cells []Cell, opts Options, done func(i int, r Result, err error)) {
	// The unit's injections in one slice: cell i owns
	// [first[i], first[i]+size[i]), and left[i] of them have neither run
	// nor been skipped yet.
	type cellState struct {
		res         Result
		err         error // sampling panicked
		first, size int
		left        atomic.Int64
	}
	state := make([]cellState, len(cells))
	var all []faultinj.Injection
	var owner []int
	for i, c := range cells {
		st := &state[i]
		injections, err := sampleCell(exp, c, opts.Faults, &st.res)
		st.err = err
		st.first, st.size = len(all), len(injections)
		st.left.Store(int64(len(injections)))
		all = append(all, injections...)
		for range injections {
			owner = append(owner, i)
		}
	}
	outcomes := make([]faultinj.InjectResult, len(all))
	ran := make([]bool, len(all)) // outcome j was actually computed

	// finish reports cell i from the outcomes that landed. The decrement
	// that brought left to zero orders every write of the cell's outcomes
	// before it.
	finish := func(i int) {
		st := &state[i]
		for j := st.first; j < st.first+st.size; j++ {
			if ran[j] {
				st.res.Counts.Add(outcomes[j])
				st.res.Faults++
			}
		}
		st.res.Interrupted = st.res.Faults < st.size
		done(i, st.res, nil)
	}
	for i := range state {
		switch st := &state[i]; {
		case st.err != nil:
			done(i, Result{}, st.err)
		case st.size == 0:
			finish(i) // skipped, or no faults asked for
		}
	}
	walk(exp, cells, all, owner, opts, func(j int, out faultinj.InjectResult, ok bool) {
		outcomes[j], ran[j] = out, ok
		if c := owner[j]; state[c].left.Add(-1) == 0 {
			finish(c)
		}
	})
	// Cells with injections that were never dispatched end here.
	for i := range state {
		if state[i].left.Load() > 0 {
			finish(i)
		}
	}
}

// walk runs injection all[j] into cells[owner[j]].Target for every j:
// grouped by checkpoint, each group in cycle order, in chunks that each
// run on one faultinj.Batch. From the pool workers it calls
// land(j, outcome, true) as each injection lands, and land(j, zero,
// false) for each one skipped because Options.Context had ended;
// injections not yet dispatched when it ends are never landed. It
// returns when every dispatched chunk is done.
func walk(exp *faultinj.Experiment, cells []Cell, all []faultinj.Injection, owner []int, opts Options, land func(j int, out faultinj.InjectResult, ran bool)) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	pool := opts.Pool
	if pool == nil {
		pool = NewPool(opts.Parallelism)
		defer pool.Close()
	}
	// Chunks stay small enough that all workers get work even when one
	// checkpoint dominates the sample. Each outcome is still fully
	// determined by its cell's (Seed, index): restores are bit-exact, so
	// grouping and scheduling cannot change any classification.
	const chunkSize = 32
	var wg sync.WaitGroup
dispatch:
	for _, group := range exp.BatchByCheckpoint(all) {
		for start := 0; start < len(group); start += chunkSize {
			if ctx.Err() != nil {
				break dispatch
			}
			chunk := group[start:min(start+chunkSize, len(group))]
			wg.Add(1)
			ok := pool.TrySubmit(ctx, func() {
				defer wg.Done()
				b := exp.NewBatch()
				defer b.Close()
				for _, j := range chunk {
					if ctx.Err() != nil {
						land(j, faultinj.InjectResult{}, false)
						continue
					}
					land(j, inject(b, cells[owner[j]].Target, all[j], opts), true)
				}
			})
			if !ok {
				wg.Done()
				break dispatch
			}
		}
	}
	wg.Wait()
}

// sampleCell fills in the cell's fixed fields and draws its injections.
// A cell that cannot be sampled comes back Skipped with none; a panic
// while sampling is returned as an error.
func sampleCell(exp *faultinj.Experiment, c Cell, faults int, res *Result) (injections []faultinj.Injection, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	*res = Result{
		Target:       c.Target.Name(),
		GoldenCycles: exp.GoldenCycles,
		StructBits:   exp.TargetBits(c.Target),
	}
	injections, err = exp.Sample(c.Target, faults, c.Seed)
	if err != nil {
		res.Skipped = err.Error()
		return nil, nil
	}
	return injections, nil
}

// inject runs one injection on the batch, unless the pruner proves it:
// the proof class then decides the synthetic outcome, Masked for the
// dead-value proofs and Crash for crash-certain ones.
func inject(b *faultinj.Batch, t faultinj.Target, inj faultinj.Injection, opts Options) faultinj.InjectResult {
	if opts.Pruner != nil && opts.Model.Width() <= 1 {
		if kind, reason := consultPruner(opts.Pruner, t, inj); kind != faultinj.PruneNone {
			out := faultinj.Masked
			if kind == faultinj.PruneDUE {
				out = faultinj.Crash
			}
			return faultinj.InjectResult{Outcome: out, Reason: "pruned: " + reason, Pruned: true, PruneKind: kind}
		}
	}
	return b.InjectModel(t, inj, opts.Model)
}
