package faultinj

import (
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/machine"
)

const testSrc = `
global int data[128];
global int rngState;

func rng() int {
	rngState = (rngState * 1103515245 + 12345) & 2147483647;
	return rngState;
}

func main() {
	rngState = 3;
	var int i;
	for (i = 0; i < 128; i = i + 1) {
		data[i] = rng() % 1000;
	}
	var int sum = 0;
	for (i = 0; i < 128; i = i + 1) {
		sum = (sum + data[i] * (i + 3)) & 2147483647;
	}
	out(sum);
	out(data[64]);
}`

func testExperiment(t *testing.T) *Experiment {
	t.Helper()
	prog, err := compiler.Compile(testSrc, "t", compiler.O1,
		compiler.Target{XLEN: 32, NumArchRegs: 16})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExperiment(machine.CortexA15Like(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func mustSample(t *testing.T, exp *Experiment, tg Target, n int, seed int64) []Injection {
	t.Helper()
	inj, err := exp.Sample(tg, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestGoldenRunRecorded(t *testing.T) {
	exp := testExperiment(t)
	if exp.GoldenCycles == 0 {
		t.Fatal("no golden cycles")
	}
	if len(exp.GoldenOutput) != 2 {
		t.Fatalf("golden output %v", exp.GoldenOutput)
	}
}

func TestTargetsCoverPaperStructures(t *testing.T) {
	targets := Targets()
	if len(targets) != 15 {
		t.Fatalf("expected 15 fields, got %d", len(targets))
	}
	components := map[string]int{}
	for _, tg := range targets {
		components[tg.Component]++
	}
	for _, c := range Components() {
		if components[c] == 0 {
			t.Errorf("component %s has no injectable field", c)
		}
	}
	if components["ROB"] != 4 {
		t.Errorf("ROB should expose 4 fields, has %d", components["ROB"])
	}
	if components["IQ"] != 2 {
		t.Errorf("IQ should expose 2 fields, has %d", components["IQ"])
	}
}

func TestTargetByName(t *testing.T) {
	if _, ok := TargetByName("L1D.data"); !ok {
		t.Error("L1D.data not found")
	}
	if _, ok := TargetByName("RF"); !ok {
		t.Error("RF not found")
	}
	if _, ok := TargetByName("bogus"); ok {
		t.Error("bogus resolved")
	}
}

func TestTargetBitsMatchConfig(t *testing.T) {
	exp := testExperiment(t)
	// A15: RF = 128 regs x 32 bits.
	rf, _ := TargetByName("RF")
	if got := exp.TargetBits(rf); got != 128*32 {
		t.Errorf("RF bits = %d, want 4096", got)
	}
	l1d, _ := TargetByName("L1D.data")
	if got := exp.TargetBits(l1d); got != 32*1024*8 {
		t.Errorf("L1D.data bits = %d", got)
	}
}

// TestSampleEmptySpace is the regression test for the Sample panic
// path: a zero-bit target (e.g. a zero-entry queue configuration) or a
// zero-cycle golden run must yield an explicit error, not a panic
// inside rand.Int63n.
func TestSampleEmptySpace(t *testing.T) {
	exp := testExperiment(t)
	empty := NewTarget("NULL", "",
		func(*machine.Machine) uint64 { return 0 },
		func(*machine.Machine, uint64) {})
	if _, err := exp.Sample(empty, 10, 1); err == nil {
		t.Fatal("zero-bit target: expected error, got none")
	} else if _, ok := err.(*SampleError); !ok {
		t.Fatalf("zero-bit target: error type %T, want *SampleError", err)
	}

	frozen := &Experiment{Config: exp.Config, Program: exp.Program, GoldenCycles: 0}
	rf, _ := TargetByName("RF")
	if _, err := frozen.Sample(rf, 10, 1); err == nil {
		t.Fatal("zero-cycle golden: expected error, got none")
	}
}

// TestTargetBitsCached checks that repeated bit-count queries don't
// rebuild a machine per call: after the first query, lookups are
// allocation-free cache hits and remain consistent.
func TestTargetBitsCached(t *testing.T) {
	exp := testExperiment(t)
	rf, _ := TargetByName("RF")
	first := exp.TargetBits(rf)
	allocs := testing.AllocsPerRun(20, func() {
		if exp.TargetBits(rf) != first {
			t.Error("cached bit count changed")
		}
	})
	if allocs > 0 {
		t.Errorf("cached TargetBits allocates %.0f objects/op, want 0", allocs)
	}
	for _, target := range Targets() {
		if exp.TargetBits(target) != exp.TargetBits(target) {
			t.Errorf("%s: unstable bit count", target.Name())
		}
	}
}

func TestSampleDeterminism(t *testing.T) {
	exp := testExperiment(t)
	rf, _ := TargetByName("RF")
	a := mustSample(t, exp, rf, 50, 7)
	b := mustSample(t, exp, rf, 50, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	c := mustSample(t, exp, rf, 50, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestInjectionDeterminism(t *testing.T) {
	exp := testExperiment(t)
	rf, _ := TargetByName("RF")
	inj := mustSample(t, exp, rf, 20, 99)
	for _, one := range inj {
		r1 := exp.Inject(rf, one)
		r2 := exp.Inject(rf, one)
		if r1.Outcome != r2.Outcome || r1.Cycles != r2.Cycles {
			t.Fatalf("injection %+v not deterministic: %v/%d vs %v/%d",
				one, r1.Outcome, r1.Cycles, r2.Outcome, r2.Cycles)
		}
	}
}

// TestInjectionSmoke drives a batch of injections into every target and
// checks the harness invariants: all runs classify, none trip
// unexpected simulator panics, and flips into free/unused state mask.
func TestInjectionSmoke(t *testing.T) {
	exp := testExperiment(t)
	for _, target := range Targets() {
		target := target
		t.Run(target.Name(), func(t *testing.T) {
			t.Parallel()
			counts := map[Outcome]int{}
			for i, inj := range mustSample(t, exp, target, 40, 1234) {
				r := exp.Inject(target, inj)
				if r.Unexpected {
					t.Errorf("injection %d (%+v): unexpected panic: %s", i, inj, r.Reason)
				}
				counts[r.Outcome]++
			}
			if counts[Masked] == 0 {
				t.Errorf("target %s: no masked outcomes in 40 injections (suspicious)", target.Name())
			}
		})
	}
}

// TestKnownFaultEffects checks a few hand-placed faults with predictable
// consequences.
func TestKnownFaultEffects(t *testing.T) {
	exp := testExperiment(t)

	// A flip in an untouched L2 line long after the program's working
	// set is resident must be masked.
	l2, _ := TargetByName("L2.data")
	r := exp.Inject(l2, Injection{Cycle: exp.GoldenCycles - 2, Bit: exp.TargetBits(l2) - 1})
	if r.Outcome != Masked {
		t.Errorf("late far L2 flip: %v, want Masked", r.Outcome)
	}

	// Flipping a high PRF bit at the very last cycle is masked: the
	// program has already produced its output.
	rf, _ := TargetByName("RF")
	r = exp.Inject(rf, Injection{Cycle: exp.GoldenCycles - 1, Bit: exp.TargetBits(rf) - 1})
	if r.Outcome != Masked {
		t.Errorf("last-cycle RF flip: %v, want Masked", r.Outcome)
	}
}
