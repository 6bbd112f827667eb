package faultinj

// Soundness and equivalence of the fast path's verdicts that simulate
// nothing past the flip (DESIGN.md §10): a cache flip answered before
// any replay from the golden images — an invalid line in a set quiet up
// to the next checkpoint, or any line of a set the golden run never
// looks up again — and a flip found to have changed only dead state at
// the flip cycle.

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

// testLevel is one cache as the tests address it: the level and its two
// targets.
type testLevel struct {
	cacheLevel
	data, tag Target
}

func testLevels() []testLevel {
	var out []testLevel
	for _, l := range cacheLevels {
		data, _ := TargetByName(l.component + ".data")
		tag, _ := TargetByName(l.component + ".tag")
		out = append(out, testLevel{l, data, tag})
	}
	return out
}

// Bit indices of one line within a level's two targets (the tag array's
// layout per line is tag bits, valid, dirty).
func (l testLevel) dataBit(m *machine.Machine, line, bit int) uint64 {
	return uint64(line*l.live(m).Config().LineSize*8 + bit)
}
func (l testLevel) tagBit(m *machine.Machine, line, bit int) uint64 {
	return uint64(line*(l.live(m).TagWidth()+2) + bit)
}
func (l testLevel) validBit(m *machine.Machine, line int) uint64 {
	return l.tagBit(m, line, l.live(m).TagWidth())
}
func (l testLevel) dirtyBit(m *machine.Machine, line int) uint64 {
	return l.tagBit(m, line, l.live(m).TagWidth()+1)
}

// intervalMiddle returns a cycle strictly inside the interval that
// starts at checkpoint at (the last one ends at the golden halt).
func intervalMiddle(e *Experiment, at int) uint64 {
	rungs := e.ckpts.Snaps()
	end := e.GoldenCycles
	if at+1 < len(rungs) {
		end = rungs[at+1].Cycle
	}
	return rungs[at].Cycle + (end-rungs[at].Cycle)/2
}

// retiredFlip is an injection built to land in a set the golden run
// never looks up after checkpoint at.
type retiredFlip struct {
	kind   string
	target Target
	inj    Injection
}

// retiredSetFlips builds, per cache level, one injection of every kind
// the retired-set rule answers and no other verdict could: into the
// first valid line of a retired set a data flip, a tag flip, a dirty-bit
// flip and a valid-bit flip, and into the first invalid line of one a
// valid-bit flip, all in the middle of the interval checkpoint at opens.
func retiredSetFlips(e *Experiment, m *machine.Machine, at int) []retiredFlip {
	lo, halt := &e.ckpts.Snaps()[at].CacheImages, e.ckpts.Halt()
	cycle := intervalMiddle(e, at)
	var out []retiredFlip
	for _, l := range testLevels() {
		c := l.live(m)
		valid, invalid := -1, -1
		for line := 0; line < c.Sets()*c.Config().Ways && (valid < 0 || invalid < 0); line++ {
			if !l.image(halt).QuietSince(l.image(lo).Clock, line) {
				continue
			}
			if l.image(lo).Valid(line) {
				if valid < 0 {
					valid = line
				}
			} else if invalid < 0 {
				invalid = line
			}
		}
		if valid >= 0 {
			out = append(out,
				retiredFlip{"data bit of a valid line", l.data, Injection{cycle, l.dataBit(m, valid, 13)}},
				retiredFlip{"tag bit of a valid line", l.tag, Injection{cycle, l.tagBit(m, valid, 1)}},
				retiredFlip{"dirty bit of a valid line", l.tag, Injection{cycle, l.dirtyBit(m, valid)}},
				retiredFlip{"valid bit of a valid line", l.tag, Injection{cycle, l.validBit(m, valid)}})
		}
		if invalid >= 0 {
			out = append(out, retiredFlip{"valid bit of an invalid line", l.tag, Injection{cycle, l.validBit(m, invalid)}})
		}
	}
	return out
}

// TestDeadFlipSoundness: every injection a dead-state or quiet-set
// verdict classifies is simulated again from cycle 0 on a fresh machine,
// with no checkpoint and no early exit, and must come back Masked at the
// golden cycle count with no reason — the result the verdict
// synthesized. The exit counters tell which injections those are, so the
// test also holds them to one count per injection. Beside the uniform
// sample, each unit gets injections built to need the retired-set rule:
// data, tag, dirty-bit and valid-bit flips of a valid line and the valid
// bit of an invalid one, in a middle interval and in the last.
func TestDeadFlipSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every dead-classified injection from cycle 0; skipped in -short")
	}
	const faults = 16
	forDeadFlipUnits(t, func(t *testing.T, u deadFlipUnit) {
		fast := u.prepare(t, Options{})
		ref := u.prepare(t, Options{Checkpoints: -1, NoFastExit: true})
		want := InjectResult{Outcome: Masked, Cycles: ref.GoldenCycles}
		// inject runs one injection on the fast path, returns what it added
		// to the exit counters, and re-simulates it if that was a verdict.
		inject := func(target Target, inj Injection) FastPathStats {
			t.Helper()
			before := fast.FastPathStats()
			got := fast.Inject(target, inj)
			after := fast.FastPathStats()
			d := FastPathStats{
				DeadQuietInterval: after.DeadQuietInterval - before.DeadQuietInterval,
				DeadRetiredSet:    after.DeadRetiredSet - before.DeadRetiredSet,
				DeadAtFlip:        after.DeadAtFlip - before.DeadAtFlip,
				ConvergedAtRung:   after.ConvergedAtRung - before.ConvergedAtRung,
				RanToEnd:          after.RanToEnd - before.RanToEnd,
			}
			if n := d.DeadBeforeReplay() + d.DeadAtFlip + d.ConvergedAtRung + d.RanToEnd; n != 1 {
				t.Fatalf("%s %+v: one injection moved the exit counters by %d: %+v -> %+v", target.Name(), inj, n, before, after)
			}
			if d.DeadBeforeReplay()+d.DeadAtFlip == 0 {
				return d
			}
			if sim := ref.Inject(target, inj); sim != want || got != want {
				t.Errorf("%s %+v classified without simulating past the flip (%+v) as %+v; simulated from cycle 0: %+v, want %+v",
					target.Name(), inj, d, got, sim, want)
			}
			return d
		}
		var total FastPathStats
		for _, target := range Targets() {
			for _, inj := range mustSample(t, fast, target, faults, 31) {
				d := inject(target, inj)
				total.DeadQuietInterval += d.DeadQuietInterval
				total.DeadRetiredSet += d.DeadRetiredSet
				total.DeadAtFlip += d.DeadAtFlip
			}
		}
		if total.DeadQuietInterval == 0 || total.DeadRetiredSet == 0 || total.DeadAtFlip == 0 {
			t.Errorf("vacuous: the uniform sample put %d injections in a quiet interval, %d in a retired set, %d dead at the flip",
				total.DeadQuietInterval, total.DeadRetiredSet, total.DeadAtFlip)
		}

		m := fast.getMachine()
		defer fast.putMachine(m)
		last := fast.ckpts.Len() - 1
		for _, at := range []int{last / 2, last} {
			where := "a middle interval"
			if at == last {
				where = "the last interval"
			}
			built := map[string]int{}
			for _, f := range retiredSetFlips(fast, m, at) {
				if d := inject(f.target, f.inj); d.DeadRetiredSet != 1 {
					t.Errorf("%s %+v, the %s of a retired set in %s: exits %+v, want the retired-set verdict", f.target.Name(), f.inj, f.kind, where, d)
				}
				built[f.kind]++
			}
			for _, kind := range []string{"data bit of a valid line", "tag bit of a valid line", "dirty bit of a valid line", "valid bit of a valid line", "valid bit of an invalid line"} {
				if built[kind] == 0 {
					t.Errorf("vacuous: no cache level has a retired set to flip the %s in, in %s", kind, where)
				}
			}
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

// TestDeadBeforeReplayImpliesDeadAtFlip: whenever the quiet-interval
// rule places a flip, replaying to that cycle and flipping leaves the
// machine Converged with its pre-flip self — that rule never claims more
// than the flip-time check does. The retired-set rule always does: what
// it alone places is a bit of a valid line, or the valid bit of an
// invalid one, and the machine after such a flip differs from golden in
// state the relation compares, for good. Around each quiet-interval hit
// in the tag array, the dirty bit of the same line is placed by the same
// rule and its valid bit never by that rule.
func TestDeadBeforeReplayImpliesDeadAtFlip(t *testing.T) {
	forDeadFlipUnits(t, func(t *testing.T, u deadFlipUnit) {
		e := u.prepare(t, Options{})
		m := e.getMachine()
		defer e.putMachine(m)
		for _, target := range Targets() {
			if target.deadBefore == nil {
				if _, placed := e.deadBeforeReplay(m, target, Injection{}); placed {
					t.Errorf("%s has no proof from the golden images but was placed", target.Name())
				}
				continue
			}
			var hits [2]int // by rule
			for _, inj := range mustSample(t, e, target, 60, 5) {
				exit, placed := e.deadBeforeReplay(m, target, inj)
				if !placed {
					continue
				}
				if hits[exit]++; hits[exit] > 4 {
					continue // the replays below are the expensive part
				}
				replayTo(t, e, m, inj.Cycle)
				pre := m.Snapshot()
				target.Flip(m, inj.Bit)
				if dead := m.Converged(pre); dead != (exit == exitQuietInterval) {
					t.Errorf("%s %+v: placed by rule %d, and the flip left the machine converged with its pre-flip self: %v", target.Name(), inj, exit, dead)
				}
				pre.Release()
			}
			if hits[exitQuietInterval] == 0 {
				t.Errorf("%s: no sampled injection was placed in a quiet interval", target.Name())
			}
		}
		l2 := testLevels()[2]
		per := uint64(m.L2.TagWidth() + 2)
		for _, inj := range mustSample(t, e, l2.tag, 200, 6) {
			line := int(inj.Bit / per)
			if exit, placed := e.deadBeforeReplay(m, l2.tag, Injection{inj.Cycle, l2.tagBit(m, line, 0)}); !placed || exit != exitQuietInterval {
				continue
			}
			if exit, placed := e.deadBeforeReplay(m, l2.tag, Injection{inj.Cycle, l2.validBit(m, line)}); placed && exit == exitQuietInterval {
				t.Errorf("L2.tag line %d at cycle %d: valid bit placed by the quiet-interval rule", line, inj.Cycle)
			}
			if exit, placed := e.deadBeforeReplay(m, l2.tag, Injection{inj.Cycle, l2.dirtyBit(m, line)}); !placed || exit != exitQuietInterval {
				t.Errorf("L2.tag line %d at cycle %d: tag bits placed by the quiet-interval rule but not the dirty bit", line, inj.Cycle)
			}
		}
	})
}

// TestDeadBeforeReplayPlacesByLineAndSet walks every L1D line at every
// checkpoint cycle, where the live cache is the checkpoint. A line valid
// there is never placed by the quiet-interval rule, and when the
// retired-set rule places it the golden run is done with it: the same
// tag, valid and dirty bit at every later checkpoint and at the halt. A
// line filled on the way to the next checkpoint had its set looked up,
// so a cycle before that checkpoint neither rule places it. An invalid
// line the quiet-interval rule places is still invalid at the next
// checkpoint.
func TestDeadBeforeReplayPlacesByLineAndSet(t *testing.T) {
	e := testExperimentOptions(t, Options{})
	defer e.Close()
	m := e.getMachine()
	defer e.putMachine(m)
	l1d := testLevels()[1]
	rungs := e.ckpts.Snaps()
	ways := m.L1D.Config().Ways
	type lineState struct {
		tag          uint64
		valid, dirty bool
	}
	// later[j][line]: the line as checkpoint j shows it, the halt image last.
	later := make([][]lineState, len(rungs)+1)
	for j := range later {
		if j < len(rungs) {
			m.L1D.Restore(rungs[j].L1D)
		} else {
			m.L1D.Restore(e.ckpts.Halt().L1D)
		}
		for line := 0; line < m.L1D.Sets()*ways; line++ {
			tag, valid, dirty := m.L1D.LineState(line/ways, line%ways)
			later[j] = append(later[j], lineState{tag, valid, dirty})
		}
	}
	var refused, retired, filled, quiet int
	for i, rung := range rungs {
		for line, at := range later[i] {
			bit := l1d.dataBit(m, line, 0)
			if i > 0 && at.valid && !later[i-1][line].valid {
				if _, placed := e.deadBeforeReplay(m, l1d.data, Injection{Cycle: rung.Cycle - 1, Bit: bit}); placed {
					t.Fatalf("cycle %d: L1D line %d placed, and is filled a cycle later", rung.Cycle-1, line)
				}
				filled++
			}
			exit, placed := e.deadBeforeReplay(m, l1d.data, Injection{Cycle: rung.Cycle, Bit: bit})
			switch {
			case at.valid && placed && exit == exitQuietInterval:
				t.Fatalf("cycle %d: valid L1D line %d placed by the quiet-interval rule", rung.Cycle, line)
			case at.valid && placed:
				for j := i + 1; j < len(later); j++ {
					if later[j][line] != at {
						t.Fatalf("cycle %d: L1D line %d placed in a retired set, but it changes from %+v to %+v later on", rung.Cycle, line, at, later[j][line])
					}
				}
				retired++
			case at.valid:
				refused++
			case placed && exit == exitQuietInterval:
				if later[i+1][line].valid {
					t.Fatalf("cycle %d: invalid L1D line %d placed in a quiet interval, and is valid at the next checkpoint", rung.Cycle, line)
				}
				quiet++
			}
		}
	}
	if refused == 0 || retired == 0 || filled == 0 || quiet == 0 {
		t.Errorf("vacuous: %d valid lines refused and %d placed in a retired set at the start of an interval, %d filled by its end, %d invalid lines placed in a quiet interval",
			refused, retired, filled, quiet)
	}
}

// TestDeadBeforeReplaySurvivesEncoding: both rules read LRU stamps, valid
// bits and clocks out of the stream, the retired-set rule out of the halt
// image at its end; a recorded stream and the same stream encoded and
// decoded place exactly the same injections by the same rule.
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
		var retired int
		for _, target := range Targets() {
			if target.deadBefore == nil {
				continue
			}
			quiet := 0
			for _, inj := range mustSample(t, recorded, target, 2000, 17) {
				exit, onRecorded := recorded.deadBeforeReplay(m, target, inj)
				if onto, onDecoded := decoded.deadBeforeReplay(m, target, inj); onDecoded != onRecorded || onto != exit {
					t.Fatalf("%s %+v: placed on the recorded stream: %v by rule %d, on the decoded one: %v by rule %d", target.Name(), inj, onRecorded, exit, onDecoded, onto)
				}
				switch {
				case onRecorded && exit == exitQuietInterval:
					quiet++
				case onRecorded:
					retired++
				}
			}
			if quiet == 0 {
				t.Errorf("%s: nothing placed in a quiet interval in 2000 samples", target.Name())
			}
		}
		if retired == 0 {
			t.Error("nothing placed in a retired set in 2000 samples of each cache field")
		}
	})
}

// TestMultiBitSkipsCheckpointPairProof: the proof reads one line's set, and
// a multi-bit flip can straddle two, so only single-bit injections take
// the exit.
func TestMultiBitSkipsCheckpointPairProof(t *testing.T) {
	e := testExperimentOptions(t, Options{})
	data, _ := TargetByName("L1D.data")
	for _, inj := range mustSample(t, e, data, 20, 9) {
		e.InjectModel(data, inj, DoubleAdjacent)
	}
	if s := e.FastPathStats(); s.DeadBeforeReplay() != 0 || s.DeadAtFlip == 0 {
		t.Errorf("double-adjacent L1D.data injections: %+v, want none dead before replay and some dead at the flip", s)
	}
}
