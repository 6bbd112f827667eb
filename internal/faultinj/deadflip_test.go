package faultinj

// Soundness and equivalence of the two dead-state verdicts of the fast
// path (DESIGN.md §10): a cache flip placed in dead state from the two
// checkpoints around it, before any replay, and a flip found to have
// changed only dead state at the flip cycle.

import (
	"fmt"
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/compiler"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// deadFlipUnit is one bundled (microarchitecture, benchmark, level) at
// the benchmark's test size.
type deadFlipUnit struct {
	cfg  machine.Config
	prog *machine.Program
}

func (u deadFlipUnit) prepare(t *testing.T, opts Options) *Experiment {
	t.Helper()
	exp, err := NewExperimentOptions(u.cfg, u.prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exp.Close)
	return exp
}

// forDeadFlipUnits runs f as a parallel subtest for qsort and sha at O0
// and O2 on both microarchitectures.
func forDeadFlipUnits(t *testing.T, f func(t *testing.T, u deadFlipUnit)) {
	for _, cfg := range machine.Configs() {
		for _, name := range []string{"qsort", "sha"} {
			bench, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, level := range []compiler.OptLevel{compiler.O0, compiler.O2} {
				t.Run(fmt.Sprintf("%s-%s-%s", cfg.Name, name, level), func(t *testing.T) {
					t.Parallel()
					prog, err := compiler.Compile(bench.Source(bench.TestSize), name, level,
						compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
					if err != nil {
						t.Fatal(err)
					}
					f(t, deadFlipUnit{cfg, prog})
				})
			}
		}
	}
}

// TestDeadFlipSoundness: every injection either dead-state verdict
// classifies is simulated again from cycle 0 on a fresh machine, with no
// checkpoint and no early exit, and must come back Masked at the golden
// cycle count with no reason — the result the verdict synthesized. The
// exit counters tell which injections those are, so the test also holds
// them to one count per injection.
func TestDeadFlipSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every dead-classified injection from cycle 0; skipped in -short")
	}
	const faults = 16
	forDeadFlipUnits(t, func(t *testing.T, u deadFlipUnit) {
		fast := u.prepare(t, Options{})
		ref := u.prepare(t, Options{Checkpoints: -1, NoFastExit: true})
		want := InjectResult{Outcome: Masked, Cycles: ref.GoldenCycles}
		var total FastPathStats
		for _, target := range Targets() {
			for _, inj := range mustSample(t, fast, target, faults, 31) {
				before := fast.FastPathStats()
				got := fast.Inject(target, inj)
				after := fast.FastPathStats()
				beforeReplay := after.DeadBeforeReplay - before.DeadBeforeReplay
				atFlip := after.DeadAtFlip - before.DeadAtFlip
				if n := beforeReplay + atFlip + after.ConvergedAtRung - before.ConvergedAtRung + after.RanToEnd - before.RanToEnd; n != 1 {
					t.Fatalf("%s %+v: one injection moved the exit counters by %d: %+v -> %+v", target.Name(), inj, n, before, after)
				}
				if beforeReplay+atFlip == 0 {
					continue
				}
				total.DeadBeforeReplay += beforeReplay
				total.DeadAtFlip += atFlip
				if sim := ref.Inject(target, inj); sim != want || got != want {
					t.Errorf("%s %+v classified dead (before replay %d, at flip %d) as %+v; simulated from cycle 0: %+v, want %+v",
						target.Name(), inj, beforeReplay, atFlip, got, sim, want)
				}
			}
		}
		if total.DeadBeforeReplay == 0 || total.DeadAtFlip == 0 {
			t.Errorf("vacuous: %d injections dead before replay, %d dead at the flip", total.DeadBeforeReplay, total.DeadAtFlip)
		}
		if s := ref.FastPathStats(); s != (FastPathStats{}) {
			t.Errorf("the reference path counted fast-path exits: %+v", s)
		}
	})
}

// replayTo restores the latest checkpoint at or before cycle into m and
// simulates the golden run up to the start of that cycle.
func replayTo(t *testing.T, e *Experiment, m *machine.Machine, cycle uint64) {
	t.Helper()
	m.Restore(e.ckpts.Latest(cycle))
	m.Run(cycle)
	if m.Core.Cycle() != cycle {
		t.Fatalf("replay stopped at cycle %d, want %d", m.Core.Cycle(), cycle)
	}
}

// TestDeadBeforeReplayImpliesDeadAtFlip: whenever the checkpoint pair
// places a flip in dead state, replaying to that cycle and flipping
// leaves the machine Converged with its pre-flip self — the first
// verdict never claims more than the second. Around each hit, the valid
// bit of the same line is never placed, its dirty bit is, and the same
// bit in the last interval is not.
func TestDeadBeforeReplayImpliesDeadAtFlip(t *testing.T) {
	forDeadFlipUnits(t, func(t *testing.T, u deadFlipUnit) {
		e := u.prepare(t, Options{})
		m := e.getMachine()
		defer e.putMachine(m)
		rungs := e.ckpts.Snaps()
		lastRung := rungs[len(rungs)-1].Cycle
		for _, target := range Targets() {
			if target.deadBetween == nil {
				if e.deadBeforeReplay(m, target, Injection{}) {
					t.Errorf("%s has no checkpoint-pair proof but was placed", target.Name())
				}
				continue
			}
			hits := 0
			for _, inj := range mustSample(t, e, target, 40, 5) {
				if !e.deadBeforeReplay(m, target, inj) {
					continue
				}
				hits++
				if late := (Injection{Cycle: lastRung + inj.Cycle%(e.GoldenCycles-lastRung), Bit: inj.Bit}); e.deadBeforeReplay(m, target, late) {
					t.Errorf("%s %+v: placed in the last interval", target.Name(), late)
				}
				if hits > 6 {
					continue // the replays below are the expensive part
				}
				replayTo(t, e, m, inj.Cycle)
				pre := m.Snapshot()
				target.Flip(m, inj.Bit)
				if !m.Converged(pre) {
					t.Errorf("%s %+v: dead before replay, but the flip changed live state", target.Name(), inj)
				}
				pre.Release()
			}
			if hits == 0 {
				t.Errorf("%s: no sampled injection was placed in dead state", target.Name())
			}
		}
		// The tag array's layout per line is tag bits, valid, dirty: of a
		// line whose tag bits are placed, the dirty bit is and the valid
		// bit is not.
		tag, _ := TargetByName("L2.tag")
		per := uint64(m.L2.TagWidth() + 2)
		for _, inj := range mustSample(t, e, tag, 200, 6) {
			first := inj.Bit - inj.Bit%per
			if !e.deadBeforeReplay(m, tag, Injection{Cycle: inj.Cycle, Bit: first}) {
				continue
			}
			if e.deadBeforeReplay(m, tag, Injection{Cycle: inj.Cycle, Bit: first + per - 2}) {
				t.Errorf("L2.tag line %d at cycle %d: valid bit placed in dead state", first/per, inj.Cycle)
			}
			if !e.deadBeforeReplay(m, tag, Injection{Cycle: inj.Cycle, Bit: first + per - 1}) {
				t.Errorf("L2.tag line %d at cycle %d: tag bits placed in dead state but not the dirty bit", first/per, inj.Cycle)
			}
		}
	})
}

// TestDeadBeforeReplayNeverPlacesAValidLine: at a checkpoint cycle the
// live cache is the checkpoint, so an interval must refuse every line
// valid at its first cycle, and every line valid at the start of the
// next — those were filled on the way, in a chunk the interval's first
// checkpoint still shows invalid.
func TestDeadBeforeReplayNeverPlacesAValidLine(t *testing.T) {
	e := testExperimentOptions(t, Options{})
	m := e.getMachine()
	defer e.putMachine(m)
	data, _ := TargetByName("L1D.data")
	rungs := e.ckpts.Snaps()
	lineBits := uint64(m.L1D.Config().LineSize) * 8
	ways := m.L1D.Config().Ways
	atStart, filled, placed := 0, 0, 0
	for i, rung := range rungs {
		m.Restore(rung)
		for line := 0; line < m.L1D.Sets()*ways; line++ {
			_, valid, _ := m.L1D.LineState(line/ways, line%ways)
			bit := uint64(line) * lineBits
			if i > 0 && valid {
				if e.deadBeforeReplay(m, data, Injection{Cycle: rung.Cycle - 1, Bit: bit}) {
					t.Fatalf("cycle %d: L1D line %d placed in dead state, and is valid a cycle later", rung.Cycle-1, line)
				}
				filled++
			}
			switch dead := e.deadBeforeReplay(m, data, Injection{Cycle: rung.Cycle, Bit: bit}); {
			case valid && dead:
				t.Fatalf("cycle %d: valid L1D line %d placed in dead state", rung.Cycle, line)
			case valid:
				atStart++
			case dead:
				placed++
			}
		}
	}
	if atStart == 0 || filled == 0 || placed == 0 {
		t.Errorf("vacuous: %d valid lines refused at the start of an interval, %d at its end, %d invalid lines placed", atStart, filled, placed)
	}
}

// TestDeadBeforeReplaySurvivesEncoding: the checkpoint-pair proof rests
// on chunk pointers, which the stream codec rebuilds; a recorded stream
// and the same stream encoded and decoded place exactly the same
// injections.
func TestDeadBeforeReplaySurvivesEncoding(t *testing.T) {
	forDeadFlipUnits(t, func(t *testing.T, u deadFlipUnit) {
		recorded := u.prepare(t, Options{})
		var w binio.Writer
		art := recorded.Artifacts()
		art.EncodeTo(&w)
		art, err := DecodeArtifacts(binio.NewReader(w.Bytes()), u.cfg)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := NewExperimentFromArtifacts(u.cfg, u.prog, art, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(decoded.Close)
		m := recorded.getMachine()
		defer recorded.putMachine(m)
		for _, target := range Targets() {
			if target.deadBetween == nil {
				continue
			}
			hits := 0
			for _, inj := range mustSample(t, recorded, target, 2000, 17) {
				onRecorded := recorded.deadBeforeReplay(m, target, inj)
				if onDecoded := decoded.deadBeforeReplay(m, target, inj); onDecoded != onRecorded {
					t.Fatalf("%s %+v: placed on the recorded stream: %v, on the decoded one: %v", target.Name(), inj, onRecorded, onDecoded)
				}
				if onRecorded {
					hits++
				}
			}
			if hits == 0 {
				t.Errorf("%s: nothing placed in 2000 samples", target.Name())
			}
		}
	})
}

// TestMultiBitSkipsCheckpointPairProof: the proof reads one line, and a
// multi-bit flip can straddle two, so only single-bit injections take
// the exit.
func TestMultiBitSkipsCheckpointPairProof(t *testing.T) {
	e := testExperimentOptions(t, Options{})
	data, _ := TargetByName("L1D.data")
	for _, inj := range mustSample(t, e, data, 20, 9) {
		e.InjectModel(data, inj, DoubleAdjacent)
	}
	if s := e.FastPathStats(); s.DeadBeforeReplay != 0 || s.DeadAtFlip == 0 {
		t.Errorf("double-adjacent L1D.data injections: %+v, want none dead before replay and some dead at the flip", s)
	}
}
