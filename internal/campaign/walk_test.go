package campaign

import (
	"context"
	"strings"
	"sync"
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// unitExp prepares one study unit, qsort at its test size and O2, on
// cfg: a golden run long enough for a ladder of a dozen rungs.
func unitExp(t *testing.T, cfg machine.Config) *faultinj.Experiment {
	t.Helper()
	bench := workloads.Qsort()
	prog, err := compiler.Compile(bench.Source(bench.TestSize), bench.Name, compiler.O2,
		compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := faultinj.NewExperiment(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exp.Close)
	return exp
}

// unitCells is one cell per target, each with a seed of its own.
func unitCells(seed int64) []Cell {
	var cells []Cell
	for i, tg := range faultinj.Targets() {
		cells = append(cells, Cell{Target: tg, Seed: seed + int64(i)})
	}
	return cells
}

// oddBits proves every injection into an odd bit masked, so a walk
// loses injections from the middle of its intervals.
type oddBits struct{}

func (oddBits) Prunable(_ faultinj.Target, inj faultinj.Injection) (bool, string) {
	return inj.Bit%2 == 1, "odd bit"
}

// TestWalkMatchesInjectOneAtATime: every outcome of a unit-wide walk
// equals the outcome of the same injection run alone, restoring its own
// checkpoint: all fifteen targets of one unit on both microarchitectures,
// single-bit and double-adjacent, with and without a pruner. Beside the
// sample, two more injections land on a sampled injection's cycle and
// two on a rung's own cycle. The same injections through one Batch in
// sample order, back and forth in time, must agree as well, so a held
// snapshot is never restored past the injection cycle.
func TestWalkMatchesInjectOneAtATime(t *testing.T) {
	for _, cfg := range machine.Configs() {
		exp := unitExp(t, cfg)
		cells := unitCells(11)
		var all []faultinj.Injection
		var owner []int
		for i, c := range cells {
			inj, err := exp.Sample(c.Target, 12, c.Seed)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, inj...)
			for range inj {
				owner = append(owner, i)
			}
		}
		rf, iq, rob := 6, 9, 11 // RF, IQ.src and ROB.pc in Targets order
		shared := all[len(all)/2].Cycle
		rung := exp.Artifacts().Stream.Snaps()[2].Cycle
		for _, x := range []struct {
			cell int
			inj  faultinj.Injection
		}{{rf, faultinj.Injection{Cycle: shared, Bit: 6}}, {rob, faultinj.Injection{Cycle: shared, Bit: 8}},
			{rf, faultinj.Injection{Cycle: rung, Bit: 4}}, {iq, faultinj.Injection{Cycle: rung, Bit: 2}}} {
			all = append(all, x.inj)
			owner = append(owner, x.cell)
		}

		for _, model := range []faultinj.Model{faultinj.SingleBit, faultinj.DoubleAdjacent} {
			for _, pruner := range []faultinj.Pruner{nil, oddBits{}} {
				opts := Options{Model: model, Pruner: pruner, Parallelism: 2}
				// The reference: Experiment.InjectModel on a batch of its
				// own, behind the same pruner.
				want := make([]faultinj.InjectResult, len(all))
				for j, inj := range all {
					b := exp.NewBatch()
					want[j] = inject(b, cells[owner[j]].Target, inj, opts)
					b.Close()
				}
				got := make([]faultinj.InjectResult, len(all))
				walk(exp, cells, all, owner, opts, func(j int, out faultinj.InjectResult, ran bool) {
					if !ran {
						t.Errorf("%s: injection %d skipped without a cancellation", cfg.Name, j)
					}
					got[j] = out
				})
				b := exp.NewBatch()
				for j, inj := range all {
					target := cells[owner[j]].Target
					if got[j] != want[j] {
						t.Errorf("%s %s pruner %v: %s %+v: walk %+v, alone %+v", cfg.Name, model, pruner != nil, target.Name(), inj, got[j], want[j])
					}
					if r := inject(b, target, inj, opts); r != want[j] {
						t.Errorf("%s %s pruner %v: %s %+v: batch in sample order %+v, alone %+v", cfg.Name, model, pruner != nil, target.Name(), inj, r, want[j])
					}
				}
				b.Close()
			}
		}
	}
}

// TestWalkCountersPinned pins what one unit's walk simulates — all
// fifteen targets, sixteen faults each, on both microarchitectures —
// exit by exit and cycle by cycle, the cycles after the flip split by
// final outcome. The same injections run one at a time, each restoring
// its own checkpoint, take the same exits and simulate the same cycles
// after the flip, and replay strictly more before it.
func TestWalkCountersPinned(t *testing.T) {
	want := map[string]faultinj.FastPathStats{
		"Cortex-A15-like": {DeadQuietInterval: 93, DeadRetiredSet: 2, DeadAtFlip: 95, ConvergedAtRung: 18, RanToEnd: 32,
			ReplayCycles: 9238, PostFlipCycles: 79534,
			PostFlipByOutcome: [faultinj.NumOutcomes]uint64{faultinj.Masked: 17797, faultinj.Crash: 339, faultinj.Timeout: 61068, faultinj.Assert: 330}},
		"Cortex-A72-like": {DeadQuietInterval: 93, DeadRetiredSet: 2, DeadAtFlip: 112, ConvergedAtRung: 11, RanToEnd: 22,
			ReplayCycles: 6049, PostFlipCycles: 39658,
			PostFlipByOutcome: [faultinj.NumOutcomes]uint64{faultinj.Masked: 12871, faultinj.SDC: 14849, faultinj.Crash: 619, faultinj.Timeout: 11007, faultinj.Assert: 312}},
	}
	for _, cfg := range machine.Configs() {
		exp := unitExp(t, cfg)
		cells := unitCells(7)
		RunUnit(exp, cells, Options{Faults: 16, Parallelism: 2}, func(int, Result, error) {})
		walked := exp.FastPathStats()
		if walked != want[cfg.Name] {
			t.Errorf("%s: the walk counted %+v, want %+v", cfg.Name, walked, want[cfg.Name])
		}

		alone := unitExp(t, cfg)
		for _, c := range cells {
			inj, err := alone.Sample(c.Target, 16, c.Seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range inj {
				alone.Inject(c.Target, in)
			}
		}
		each := alone.FastPathStats()
		t.Logf("%s: %d cycles replayed walking, %d one injection at a time", cfg.Name, walked.ReplayCycles, each.ReplayCycles)
		if each.ReplayCycles <= walked.ReplayCycles {
			t.Errorf("%s: the walk replayed %d cycles, one injection at a time %d", cfg.Name, walked.ReplayCycles, each.ReplayCycles)
		}
		each.ReplayCycles = walked.ReplayCycles
		if each != walked {
			t.Errorf("%s: one injection at a time counted %+v, the walk %+v", cfg.Name, each, walked)
		}
	}
}

// TestRunUnitReportsEachCellAtItsLastInjection: on one worker, a cell is
// reported right after its last injection, before the next injection of
// any cell starts. The pruner sees every injection as it is taken up.
func TestRunUnitReportsEachCellAtItsLastInjection(t *testing.T) {
	exp := unitExp(t, machine.CortexA15Like())
	cells := unitCells(3)
	var log []string // one worker: the pruner and done never run at once
	rec := recorder(func(tg faultinj.Target) { log = append(log, "inject "+tg.Name()) })
	RunUnit(exp, cells, Options{Faults: 6, Parallelism: 1, Pruner: rec}, func(i int, r Result, err error) {
		if err != nil || r.Interrupted || r.Faults != 6 {
			t.Errorf("%s: %+v %v", cells[i].Target.Name(), r, err)
		}
		log = append(log, "done "+cells[i].Target.Name())
	})
	for _, c := range cells {
		name := c.Target.Name()
		last, at := -1, -1
		for k, e := range log {
			switch e {
			case "inject " + name:
				last = k
			case "done " + name:
				at = k
			}
		}
		if last < 0 || at < last {
			t.Fatalf("%s: last injection at %d, reported at %d", name, last, at)
		}
		for _, e := range log[last+1 : at] {
			if strings.HasPrefix(e, "inject ") {
				t.Errorf("%s: %q ran between its last injection and its report", name, e)
			}
		}
	}
}

// recorder is a pruner that proves nothing and tells of every injection.
type recorder func(faultinj.Target)

func (r recorder) Prunable(tg faultinj.Target, _ faultinj.Injection) (bool, string) {
	r(tg)
	return false, ""
}

// TestRunUnitCancellationDropsOnlyUnfinished cancels the campaign from
// the report of its fourth finished cell: the four reported before keep
// their whole results, equal to Run's for the cell alone, and every cell
// after is reported once, Interrupted.
func TestRunUnitCancellationDropsOnlyUnfinished(t *testing.T) {
	exp := unitExp(t, machine.CortexA15Like())
	cells := unitCells(5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var order []int
	got := map[int]Result{}
	RunUnit(exp, cells, Options{Faults: 6, Parallelism: 1, Context: ctx}, func(i int, r Result, err error) {
		if err != nil {
			t.Errorf("%s: %v", cells[i].Target.Name(), err)
		}
		if _, twice := got[i]; twice {
			t.Errorf("%s reported twice", cells[i].Target.Name())
		}
		got[i] = r
		if order = append(order, i); len(order) == 4 {
			cancel()
		}
	})
	if len(order) != len(cells) {
		t.Fatalf("%d of %d cells reported", len(order), len(cells))
	}
	for k, i := range order {
		r, c := got[i], cells[i]
		if k < 4 {
			if want := Run(exp, c.Target, Options{Faults: 6, Seed: c.Seed}); r != want {
				t.Errorf("%s, finished before the cancellation: %+v, alone %+v", c.Target.Name(), r, want)
			}
		} else if !r.Interrupted || r.Faults == 6 {
			t.Errorf("%s, unfinished at the cancellation: %+v", c.Target.Name(), r)
		}
	}
}

// TestRunUnitIsolatesSamplingPanic: a cell whose sampling panics is
// reported with the panic as its error and fails nobody else; the unit's
// other cells return what Run returns for them alone, and Run of that
// target alone raises the panic again.
func TestRunUnitIsolatesSamplingPanic(t *testing.T) {
	exp := unitExp(t, machine.CortexA15Like())
	panicky := faultinj.NewTarget("PANIC", "", func(*machine.Machine) uint64 { panic("no bits") }, func(*machine.Machine, uint64) {})
	cells := append(unitCells(9)[5:9], Cell{Target: panicky, Seed: 1})
	var mu sync.Mutex
	got := map[int]Result{}
	RunUnit(exp, cells, Options{Faults: 8, Parallelism: 2}, func(i int, r Result, err error) {
		if (err != nil) != (i == 4) || (err != nil && !strings.Contains(err.Error(), "panic: no bits")) {
			t.Errorf("%s: error %v", cells[i].Target.Name(), err)
		}
		mu.Lock()
		got[i] = r
		mu.Unlock()
	})
	for i, c := range cells[:4] {
		if r := got[i]; r != Run(exp, c.Target, Options{Faults: 8, Seed: c.Seed}) {
			t.Errorf("%s: %+v differs from the cell run alone", c.Target.Name(), r)
		}
	}
	if _, ok := got[4]; !ok {
		t.Error("the cell whose sampling panicked was not reported")
	}
	defer func() {
		if p := recover(); p == nil {
			t.Error("Run of a target whose sampling panics returned")
		}
	}()
	Run(exp, panicky, Options{Faults: 8})
}
