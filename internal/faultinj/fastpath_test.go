package faultinj

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/machine"
)

// testExperimentOptions is testExperiment with explicit fast-path
// options, sharing the same source, level, and machine configuration.
func testExperimentOptions(t *testing.T, opts Options) *Experiment {
	t.Helper()
	prog, err := compiler.Compile(testSrc, "t", compiler.O1,
		compiler.Target{XLEN: 32, NumArchRegs: 16})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExperimentOptions(machine.CortexA15Like(), prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestCycleBudget covers the hoisted timeout computation and its
// overflow guard: the budget is timeoutFactor x golden plus slack, and
// saturates instead of wrapping for absurd golden lengths.
func TestCycleBudget(t *testing.T) {
	e := &Experiment{GoldenCycles: 100}
	if got := e.cycleBudget(); got != 100*timeoutFactor+1000 {
		t.Errorf("budget = %d, want %d", got, 100*timeoutFactor+1000)
	}
	e.GoldenCycles = (math.MaxUint64 - 1000) / timeoutFactor
	if got := e.cycleBudget(); got != e.GoldenCycles*timeoutFactor+1000 {
		t.Errorf("largest non-saturating budget = %d", got)
	}
	e.GoldenCycles = (math.MaxUint64-1000)/timeoutFactor + 1
	if got := e.cycleBudget(); got != math.MaxUint64 {
		t.Errorf("overflowing budget = %d, want saturation at MaxUint64", got)
	}
	e.GoldenCycles = math.MaxUint64
	if got := e.cycleBudget(); got != math.MaxUint64 {
		t.Errorf("MaxUint64 golden budget = %d, want MaxUint64", got)
	}
}

// TestFastPathDefaultsEnabled: the default constructor must actually
// arm the checkpoint stream and the early exit — otherwise every other
// test here compares the reference path against itself. The stream
// holds at most the budget, starts at cycle 0, stays below the halt
// cycle, and lands on the same cycles every time.
func TestFastPathDefaultsEnabled(t *testing.T) {
	exp := testExperimentOptions(t, Options{})
	if exp.ckpts == nil {
		t.Fatal("default experiment has no checkpoint stream")
	}
	rungs := exp.ckpts.Snaps()
	if len(rungs) < 2 || len(rungs) > DefaultCheckpoints {
		t.Fatalf("default stream has %d checkpoints, want 2..%d", len(rungs), DefaultCheckpoints)
	}
	if rungs[0].Cycle != 0 {
		t.Errorf("first checkpoint at cycle %d, want 0", rungs[0].Cycle)
	}
	if last := rungs[len(rungs)-1].Cycle; last >= exp.GoldenCycles {
		t.Errorf("last checkpoint at cycle %d, golden run halts at %d", last, exp.GoldenCycles)
	}
	again := testExperimentOptions(t, Options{}).ckpts.Snaps()
	if len(again) != len(rungs) {
		t.Fatalf("a second preparation kept %d checkpoints, the first %d", len(again), len(rungs))
	}
	for i := range rungs {
		if again[i].Cycle != rungs[i].Cycle {
			t.Errorf("checkpoint %d moved from cycle %d to %d between preparations", i, rungs[i].Cycle, again[i].Cycle)
		}
	}
	if !exp.fastExit {
		t.Error("default experiment has the early-convergence exit disabled")
	}
	if one := testExperimentOptions(t, Options{Checkpoints: 1}); one.ckpts == nil || one.ckpts.Len() != 1 {
		t.Error("Checkpoints: 1 must keep cycle 0 alone")
	}
	off := testExperimentOptions(t, Options{Checkpoints: -1})
	if off.ckpts != nil {
		t.Error("Checkpoints: -1 still recorded a stream")
	}
	noExit := testExperimentOptions(t, Options{NoFastExit: true})
	if noExit.ckpts == nil || noExit.fastExit {
		t.Error("NoFastExit must keep fast-forward but disable the early exit")
	}
}

// countMachines swaps the package's machine constructor for one that
// records what it builds, until the test ends. Not for parallel tests.
func countMachines(t *testing.T) *[]*machine.Machine {
	t.Helper()
	var built []*machine.Machine
	var mu sync.Mutex
	newMachine = func(cfg machine.Config, prog *machine.Program) *machine.Machine {
		m := machine.New(cfg, prog)
		mu.Lock()
		built = append(built, m)
		mu.Unlock()
		return m
	}
	t.Cleanup(func() { newMachine = machine.New })
	return &built
}

// TestPrepIsOneMachineOnePass: preparing a unit builds one machine and
// simulates the golden run on it once, whatever the options. The
// machine's counters read exactly the golden result afterwards (nothing
// else was simulated on it) and a traced run saw each commit once.
func TestPrepIsOneMachineOnePass(t *testing.T) {
	for _, opts := range []Options{{}, {Traced: true}, {Checkpoints: 1}, {Checkpoints: 64, NoFastExit: true}, {Checkpoints: -1, Traced: true}} {
		built := countMachines(t)
		exp := testExperimentOptions(t, opts)
		if len(*built) != 1 {
			t.Fatalf("%+v: preparation built %d machines, want 1", opts, len(*built))
		}
		m := (*built)[0]
		if m.Core.Cycle() != exp.GoldenCycles || m.Core.Stats != exp.GoldenStats.Stats ||
			m.L1I.Stats != exp.GoldenStats.L1I || m.L1D.Stats != exp.GoldenStats.L1D || m.L2.Stats != exp.GoldenStats.L2 {
			t.Errorf("%+v: the machine's counters are not the golden run's: cycle %d, golden %d", opts, m.Core.Cycle(), exp.GoldenCycles)
		}
		if opts.Traced && uint64(exp.Trace.Len()) != exp.GoldenStats.Stats.Committed {
			t.Errorf("%+v: trace holds %d events, the golden run committed %d", opts, exp.Trace.Len(), exp.GoldenStats.Stats.Committed)
		}
		// Injections afterwards must not grow the trace: the golden
		// machine serves them as a scratch machine, without the hook.
		rf, _ := TargetByName("RF")
		n := exp.Trace.Len()
		for _, inj := range mustSample(t, exp, rf, 4, 11) {
			exp.Inject(rf, inj)
		}
		if exp.Trace.Len() != n {
			t.Errorf("%+v: injections appended %d events to the golden trace", opts, exp.Trace.Len()-n)
		}
	}
}

// TestGoldenCrashReleasesStream: a golden run that crashes after rungs
// were taken returns the GoldenError a plain run would, and nothing of
// the recording survives.
func TestGoldenCrashReleasesStream(t *testing.T) {
	prog, err := compiler.Compile(`
global int data[8];
func main() {
	var int i;
	var int sum = 0;
	for (i = 0; i < 400; i = i + 1) { sum = (sum + i) & 65535; }
	out(sum);
	out(data[sum * 100000]);
}`, "crash", compiler.O0, compiler.Target{XLEN: 32, NumArchRegs: 16})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.CortexA15Like()
	plain := machine.New(cfg, prog).Run(1 << 40)
	if plain.Outcome != machine.OutcomeCrash || plain.Cycles < 512 {
		t.Fatalf("plain run: %v after %d cycles, want a crash a few rungs in", plain.Outcome, plain.Cycles)
	}
	for _, opts := range []Options{{}, {Checkpoints: -1}} {
		exp, err := NewExperimentOptions(cfg, prog, opts)
		var ge *GoldenError
		if !errors.As(err, &ge) || exp != nil {
			t.Fatalf("%+v: got (%v, %v), want a GoldenError", opts, exp, err)
		}
		if !reflect.DeepEqual(ge.Result, plain) {
			t.Errorf("%+v: GoldenError carries %+v, a plain run ends %+v", opts, ge.Result, plain)
		}
	}
}

// TestTargetBitsKeepsNoMachine: bit counts come from a borrowed scratch
// machine, or with checkpointing off from one temporary machine that
// serves every built-in target, and match a fresh machine's.
func TestTargetBitsKeepsNoMachine(t *testing.T) {
	probe := machine.New(machine.CortexA15Like(), testExperimentOptions(t, Options{Checkpoints: -1}).Program)
	custom := NewTarget("X", "", func(m *machine.Machine) uint64 { return uint64(m.Cfg.CPU.ROBSize) }, func(*machine.Machine, uint64) {})
	for _, opts := range []Options{{}, {Checkpoints: -1}} {
		exp := testExperimentOptions(t, opts)
		built := countMachines(t)
		for _, target := range append(Targets(), custom) {
			if got, want := exp.TargetBits(target), target.Bits(probe); got != want || want == 0 {
				t.Errorf("%+v %s: %d bits, a fresh machine has %d", opts, target.Name(), got, want)
			}
		}
		// Built-in targets share the first query's machine; the custom
		// one needs its own look. With checkpointing on both borrow from
		// the scratch pool, which may or may not still hold the golden
		// machine.
		if want := 2; len(*built) > want || (opts.Checkpoints < 0 && len(*built) != want) {
			t.Errorf("%+v: %d machines built for %d targets, want %d", opts, len(*built), len(Targets())+1, want)
		}
	}
}

// TestInjectEquivalenceAcrossFastPathModes is the per-injection half of
// the soundness acceptance: for every target, the full InjectResult
// (outcome, reason, cycle count) of the reference path — fresh machine,
// simulate from cycle 0 — is reproduced bit-for-bit with checkpoint
// fast-forward alone and with the early-convergence exit on top.
func TestInjectEquivalenceAcrossFastPathModes(t *testing.T) {
	ref := testExperimentOptions(t, Options{Checkpoints: -1, NoFastExit: true})
	ffwd := testExperimentOptions(t, Options{NoFastExit: true})
	fast := testExperimentOptions(t, Options{})

	for _, target := range Targets() {
		target := target
		t.Run(target.Name(), func(t *testing.T) {
			t.Parallel()
			for i, inj := range mustSample(t, ref, target, 10, 4242) {
				want := ref.Inject(target, inj)
				if got := ffwd.Inject(target, inj); got != want {
					t.Errorf("injection %d (%+v): fast-forward %+v, reference %+v", i, inj, got, want)
				}
				if got := fast.Inject(target, inj); got != want {
					t.Errorf("injection %d (%+v): fast exit %+v, reference %+v", i, inj, got, want)
				}
			}
		})
	}
}

// TestInjectModelEquivalenceAcrossFastPathModes extends the equivalence
// check to the multi-bit models, which share the same hot path.
func TestInjectModelEquivalenceAcrossFastPathModes(t *testing.T) {
	ref := testExperimentOptions(t, Options{Checkpoints: -1, NoFastExit: true})
	fast := testExperimentOptions(t, Options{})
	rf, _ := TargetByName("RF")
	l1d, _ := TargetByName("L1D.data")
	for _, target := range []Target{rf, l1d} {
		for _, model := range []Model{DoubleAdjacent, QuadAdjacent} {
			for i, inj := range mustSample(t, ref, target, 8, 77) {
				want := ref.InjectModel(target, inj, model)
				if got := fast.InjectModel(target, inj, model); got != want {
					t.Errorf("%s %s injection %d: %+v, reference %+v", target.Name(), model, i, got, want)
				}
			}
		}
	}
}

// TestSnapshotCoversEveryTargetField is the per-target snapshot
// coverage check: for each of the fifteen injectable fields, flipping a
// bit must change the strict snapshot, flipping it back must restore
// strict equality (all flips are involutions), and restoring the
// flipped snapshot into a fresh machine must reproduce it exactly.
func TestSnapshotCoversEveryTargetField(t *testing.T) {
	exp := testExperimentOptions(t, Options{Checkpoints: -1})
	mid := exp.GoldenCycles / 2
	for _, target := range Targets() {
		target := target
		t.Run(target.Name(), func(t *testing.T) {
			t.Parallel()
			m := machine.New(exp.Config, exp.Program)
			if _, stopped := m.RunWatched(mid+1, []machine.Watch{
				{At: mid, Fn: func(*machine.Machine) bool { return true }},
			}); !stopped {
				t.Fatalf("machine ended before cycle %d", mid)
			}
			base := m.Snapshot()
			bits := target.Bits(m)
			probes := []uint64{0, bits - 1, bits / 2, bits / 3, bits / 7}
			seen := map[uint64]bool{}
			for _, bit := range probes {
				if seen[bit] {
					continue
				}
				seen[bit] = true
				target.Flip(m, bit)
				flipped := m.Snapshot()
				if flipped.Equal(base) {
					t.Errorf("bit %d: flip not captured by the snapshot", bit)
				}
				fresh := machine.New(exp.Config, exp.Program)
				fresh.Restore(flipped)
				if !fresh.Snapshot().Equal(flipped) {
					t.Errorf("bit %d: flipped snapshot does not restore bit-exactly", bit)
				}
				target.Flip(m, bit)
				if !m.Snapshot().Equal(base) {
					t.Errorf("bit %d: flip-back did not return to the base snapshot", bit)
				}
			}
		})
	}
}

var (
	fuzzExpOnce sync.Once
	fuzzExp     *Experiment
	fuzzExpErr  error
)

func fuzzExperiment() (*Experiment, error) {
	fuzzExpOnce.Do(func() {
		prog, err := compiler.Compile(testSrc, "t", compiler.O1,
			compiler.Target{XLEN: 32, NumArchRegs: 16})
		if err != nil {
			fuzzExpErr = err
			return
		}
		fuzzExp, fuzzExpErr = NewExperimentOptions(machine.CortexA15Like(), prog, Options{Checkpoints: -1})
	})
	return fuzzExp, fuzzExpErr
}

// FuzzFlipSnapshotRestore fuzzes Restore(Snapshot()) round-trips over
// every structure bit: an arbitrary (target, cycle, bit) flip must be
// captured by the snapshot, restore bit-exactly into a fresh machine,
// and flip back to the pre-flip snapshot.
func FuzzFlipSnapshotRestore(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0))
	f.Add(uint8(6), uint64(100), uint64(31))
	f.Add(uint8(14), uint64(1<<32), uint64(1<<50))
	f.Fuzz(func(t *testing.T, targetIdx uint8, cycleSeed, bitSeed uint64) {
		exp, err := fuzzExperiment()
		if err != nil {
			t.Fatal(err)
		}
		targets := Targets()
		target := targets[int(targetIdx)%len(targets)]
		cycle := cycleSeed % exp.GoldenCycles

		m := machine.New(exp.Config, exp.Program)
		if cycle > 0 {
			if _, stopped := m.RunWatched(cycle+1, []machine.Watch{
				{At: cycle, Fn: func(*machine.Machine) bool { return true }},
			}); !stopped {
				t.Fatalf("machine ended before cycle %d", cycle)
			}
		}
		base := m.Snapshot()
		bit := bitSeed % target.Bits(m)
		target.Flip(m, bit)
		flipped := m.Snapshot()
		if flipped.Equal(base) {
			t.Errorf("%s bit %d at cycle %d: flip invisible to the snapshot", target.Name(), bit, cycle)
		}
		fresh := machine.New(exp.Config, exp.Program)
		fresh.Restore(flipped)
		if !fresh.Snapshot().Equal(flipped) {
			t.Errorf("%s bit %d at cycle %d: restore not bit-exact", target.Name(), bit, cycle)
		}
		target.Flip(m, bit)
		if !m.Snapshot().Equal(base) {
			t.Errorf("%s bit %d at cycle %d: flip-back not bit-exact", target.Name(), bit, cycle)
		}
	})
}
