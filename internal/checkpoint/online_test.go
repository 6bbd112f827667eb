package checkpoint

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/compiler"
	"sevsim/internal/cpu"
	"sevsim/internal/isa"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// rungCycles lists a stream's checkpoint cycles.
func rungCycles(s *Stream) []uint64 {
	out := make([]uint64, s.Len())
	for i, sn := range s.Snaps() {
		out[i] = sn.Cycle
	}
	return out
}

// replayCost is the mean number of golden cycles an injection at a
// uniformly drawn cycle re-simulates before its flip when it restores
// the latest of the given rungs: Σgap²/(2·golden).
func replayCost(rungs []uint64, golden uint64) float64 {
	var sum float64
	for i, c := range rungs {
		next := golden
		if i+1 < len(rungs) {
			next = rungs[i+1]
		}
		gap := float64(next - c)
		sum += gap * gap
	}
	return sum / (2 * float64(golden))
}

// checkOnline records prog's golden run online with budget k and holds
// the recorder to its whole contract against the two-pass reference: a
// plain Run for the result, Record at the same cycles for the
// snapshots. It returns the recorded cycles.
func checkOnline(t *testing.T, cfg machine.Config, prog *machine.Program, k int) []uint64 {
	t.Helper()
	plainMachine := machine.New(cfg, prog)
	plain := plainMachine.Run(1 << 40)
	if plain.Outcome != machine.OutcomeOK {
		t.Fatalf("golden run ended %v %s", plain.Outcome, plain.Reason)
	}
	stream, res := RecordOnline(machine.New(cfg, prog), 1<<40, k)
	defer stream.Release()
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("one-pass result differs from a plain run:\n got %+v\nwant %+v", res, plain)
	}
	if stream.Halt() == nil || !stream.Halt().Equal(plainMachine.SnapshotCaches()) {
		t.Errorf("halt image is not the caches a plain run ends on")
	}

	rungs := rungCycles(stream)
	if len(rungs) == 0 || len(rungs) > k {
		t.Fatalf("%d rungs kept, want 1..%d", len(rungs), k)
	}
	if rungs[0] != 0 {
		t.Errorf("first rung at cycle %d, want 0", rungs[0])
	}
	for i, c := range rungs {
		if c >= plain.Cycles {
			t.Errorf("rung %d at cycle %d, at or past the halt cycle %d", i, c, plain.Cycles)
		}
		if i > 0 && c <= rungs[i-1] {
			t.Errorf("rungs not strictly ascending: %v", rungs)
		}
	}
	if want := onlineCycles(plain.Cycles, k); !reflect.DeepEqual(rungs, want) {
		t.Errorf("rungs %v are not the function of (%d, %d) the recorder promises: %v", rungs, plain.Cycles, k, want)
	}
	// Below k·firstInterval cycles the first interval is already wider
	// than an even step and the ladder is simply sparser; from there on
	// the final interval lies between half an even step and one.
	if plain.Cycles >= uint64(k)*firstInterval {
		even := replayCost(Cycles(plain.Cycles, k), plain.Cycles)
		if got := replayCost(rungs, plain.Cycles); got > 1.15*even {
			t.Errorf("mean pre-flip replay %.1f cycles, even ladder %.1f: ratio %.3f > 1.15", got, even, got/even)
		}
	}

	ref, refRes := Record(machine.New(cfg, prog), 1<<40, rungs)
	defer ref.Release()
	if !reflect.DeepEqual(refRes, plain) || ref.Len() != len(rungs) {
		t.Fatalf("reference recording: %d snapshots, %v after %d cycles", ref.Len(), refRes.Outcome, refRes.Cycles)
	}
	for i, sn := range stream.Snaps() {
		if !sn.Equal(ref.Snaps()[i]) {
			t.Errorf("rung %d (cycle %d) differs from the snapshot Record takes there", i, sn.Cycle)
		}
	}
	if ref.Halt() == nil || !stream.Halt().Equal(*ref.Halt()) {
		t.Errorf("halt image differs from the one Record takes")
	}
	// Discarded rungs leave no mark on the kept ones' sharing either:
	// the bundle bytes are those of the two-pass recording.
	var a, b binio.Writer
	stream.EncodeTo(&a)
	ref.EncodeTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("encoded stream (%d bytes) differs from the two-pass recording's (%d bytes)", len(a.Bytes()), len(b.Bytes()))
	}
	return rungs
}

// onlineCycles is the recorder's placement rule written down without a
// machine: the interval doubles each time a 2k-th rung would be held,
// and each even cycle snaps down to a multiple of the final interval.
func onlineCycles(golden uint64, k int) []uint64 {
	d := uint64(firstInterval)
	for golden > uint64(2*k-1)*d {
		d *= 2
	}
	var out []uint64
	for _, c := range Cycles(golden, k) {
		c = c / d * d
		if len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
	}
	return out
}

func compileBundled(t *testing.T, b workloads.Benchmark, size int, lv compiler.OptLevel, cfg machine.Config) *machine.Program {
	t.Helper()
	prog, err := compiler.Compile(b.Source(size), b.Name, lv,
		compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRecordOnlineMatchesReference runs the contract check over every
// bundled (benchmark, level, microarchitecture) at test size, and at
// the evaluation size for a quick subset.
func TestRecordOnlineMatchesReference(t *testing.T) {
	for _, cfg := range machine.Configs() {
		for _, b := range workloads.All() {
			for _, lv := range compiler.Levels {
				t.Run(fmt.Sprintf("%s/%s/%v", cfg.Name, b.Name, lv), func(t *testing.T) {
					t.Parallel()
					checkOnline(t, cfg, compileBundled(t, b, b.TestSize, lv, cfg), 32)
				})
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, cfg := range machine.Configs() {
		for _, name := range []string{"qsort", "sha"} {
			b, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/%s/O2/default-size", cfg.Name, name), func(t *testing.T) {
				t.Parallel()
				checkOnline(t, cfg, compileBundled(t, b, b.DefaultSize, compiler.O2, cfg), 32)
			})
		}
	}
}

// TestRecordOnlineBudgets covers the budgets the study-level
// equivalence test uses, the degenerate ones, and runs short enough
// that the interval never doubles.
func TestRecordOnlineBudgets(t *testing.T) {
	cfg := machine.Configs()[0]
	qsort, _ := workloads.ByName("qsort")
	long := compileBundled(t, qsort, qsort.TestSize, compiler.O2, cfg)
	for _, k := range []int{1, 2, 8, 64} {
		rungs := checkOnline(t, cfg, long, k)
		if k == 1 && len(rungs) != 1 {
			t.Errorf("k=1 kept rungs %v, want cycle 0 alone", rungs)
		}
	}

	// testProgram halts well inside 4·firstInterval cycles: the recorder
	// holds a rung per interval, never thins, and keeps fewer than k.
	golden := mustGolden(t, cfg)
	if golden.Cycles >= 4*firstInterval {
		t.Fatalf("test program runs %d cycles, want a run shorter than k·firstInterval", golden.Cycles)
	}
	rungs := checkOnline(t, cfg, testProgram(), 4)
	if want := int((golden.Cycles-1)/firstInterval) + 1; len(rungs) > want {
		t.Errorf("short run kept %d rungs, but only %d multiples of the first interval lie below cycle %d", len(rungs), want, golden.Cycles)
	}

	// A non-positive budget records nothing and still runs the program.
	s, res := RecordOnline(machine.New(cfg, testProgram()), 1<<30, 0)
	if s.Len() != 0 || s.Halt() != nil || !reflect.DeepEqual(res, golden) {
		t.Errorf("budget 0: %d rungs, halt image %v, %v after %d cycles", s.Len(), s.Halt(), res.Outcome, res.Cycles)
	}
}

// TestRecordOnlineRepeats: two recordings of one unit keep rungs at
// exactly the same cycles, so prep bundles stay deterministic.
func TestRecordOnlineRepeats(t *testing.T) {
	for _, cfg := range machine.Configs() {
		gsm, _ := workloads.ByName("gsm")
		prog := compileBundled(t, gsm, gsm.TestSize, compiler.O1, cfg)
		a, _ := RecordOnline(machine.New(cfg, prog), 1<<40, 32)
		b, _ := RecordOnline(machine.New(cfg, prog), 1<<40, 32)
		if !reflect.DeepEqual(rungCycles(a), rungCycles(b)) {
			t.Errorf("%s: rungs moved between two recordings: %v then %v", cfg.Name, rungCycles(a), rungCycles(b))
		}
		a.Release()
		b.Release()
	}
}

// TestRecordOnlineTracedRun: a commit hook observes the same event
// stream whether or not the pass also records the ladder.
func TestRecordOnlineTracedRun(t *testing.T) {
	cfg := machine.Configs()[0]
	trace := func(record bool) ([]cpu.CommitEvent, machine.Result) {
		m := machine.New(cfg, testProgram())
		var evs []cpu.CommitEvent
		m.Core.SetCommitHook(func(ev cpu.CommitEvent) { evs = append(evs, ev) })
		if !record {
			return evs, m.Run(1 << 30)
		}
		s, res := RecordOnline(m, 1<<30, 8)
		s.Release()
		return evs, res
	}
	want, plain := trace(false)
	got, res := trace(true)
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("traced one-pass result differs from a plain traced run")
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("commit trace differs: %d events while recording, %d without", len(got), len(want))
	}
}

// TestRecordOnlineFailedRuns: a run that crashes or exhausts its budget
// comes back with that result and rungs below where it stopped, for the
// caller to release.
func TestRecordOnlineFailedRuns(t *testing.T) {
	cfg := machine.Configs()[0]
	const a0 = isa.RegA0
	var ins []isa.Instr
	for i := 0; i < 600; i++ { // long enough to hold a rung past cycle 0
		ins = append(ins, isa.I(isa.OpAddi, a0, a0, 1))
	}
	ins = append(ins, isa.Load(isa.OpLw, a0, isa.RegZero, 0)) // unmapped address
	crashing := &machine.Program{Name: "crash", Code: isa.Assemble(ins), Entry: machine.CodeBase, GlobalSize: 4096}

	plain := machine.New(cfg, crashing).Run(1 << 30)
	if plain.Outcome != machine.OutcomeCrash {
		t.Fatalf("plain run ended %v, want a crash", plain.Outcome)
	}
	s, res := RecordOnline(machine.New(cfg, crashing), 1<<30, 4)
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("crashing one-pass result differs from a plain run: %+v vs %+v", res, plain)
	}
	for _, c := range rungCycles(s) {
		if c >= res.Cycles {
			t.Errorf("rung at cycle %d, crash at %d", c, res.Cycles)
		}
	}
	s.Release()

	budget := 2*uint64(firstInterval) + 7
	plain = machine.New(cfg, crashing).Run(budget)
	s, res = RecordOnline(machine.New(cfg, crashing), budget, 4)
	if res.Outcome != machine.OutcomeTimeout || !reflect.DeepEqual(res, plain) {
		t.Errorf("budgeted one-pass run: %v after %d cycles, plain %v after %d", res.Outcome, res.Cycles, plain.Outcome, plain.Cycles)
	}
	if got := rungCycles(s); len(got) == 0 || got[len(got)-1] >= budget {
		t.Errorf("rungs %v of a run cut off at cycle %d", got, budget)
	}
	s.Release()
}
