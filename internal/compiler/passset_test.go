package compiler

import (
	"testing"

	"sevsim/internal/interp"
	"sevsim/internal/lang"
	"sevsim/internal/machine"
)

const passSetSrc = `
global int acc[32];
func mix(int a, int b) int { return (a * 13 + b) % 971; }
func main() {
	var int i;
	for (i = 0; i < 32; i = i + 1) {
		acc[i] = mix(i, i * i);
	}
	var int s = 0;
	for (i = 0; i < 32; i = i + 1) {
		s = (s + acc[i] * 4) & 2147483647;
	}
	out(s);
}`

// TestEveryAblationIsCorrect: removing any single pass must never change
// program semantics, only performance.
func TestEveryAblationIsCorrect(t *testing.T) {
	prog, err := lang.Parse(passSetSrc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(prog, 64, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{XLEN: 64, NumArchRegs: 32}
	cfg := machine.CortexA72Like()
	base := LevelPasses(O3, tgt)
	sets := []PassSet{base}
	for _, name := range PassNames() {
		sets = append(sets, base.Without(name))
	}
	for i, ps := range sets {
		bin, err := CompileWithPasses(passSetSrc, "p", ps, tgt)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		res := machine.New(cfg, bin).Run(1 << 30)
		if res.Outcome != machine.OutcomeOK {
			t.Fatalf("set %d: %v %s", i, res.Outcome, res.Reason)
		}
		if len(res.Output) != len(want) || res.Output[0] != want[0] {
			t.Fatalf("set %d: output %v, want %v", i, res.Output, want)
		}
	}
}

func TestWithoutUnknownNameIsNoop(t *testing.T) {
	tgt := Target{XLEN: 64, NumArchRegs: 32}
	base := LevelPasses(O2, tgt)
	if base.Without("bogus") != base {
		t.Error("unknown pass name should not change the set")
	}
}

func TestLevelPassesShape(t *testing.T) {
	tgt16 := Target{XLEN: 32, NumArchRegs: 16}
	tgt32 := Target{XLEN: 64, NumArchRegs: 32}
	if !LevelPasses(O0, tgt16).UserVarsInMemory {
		t.Error("O0 must pin user variables to memory")
	}
	if LevelPasses(O1, tgt16).LICM {
		t.Error("O1 must not include LICM")
	}
	if !LevelPasses(O2, tgt32).Scheduling {
		t.Error("O2 on the 32-register target includes scheduling")
	}
	if LevelPasses(O2, tgt16).Scheduling {
		t.Error("O2 on the 16-register target skips scheduling (pressure)")
	}
	o3 := LevelPasses(O3, tgt32)
	if !o3.Inline || !o3.Unroll || !o3.LICM {
		t.Error("O3 includes inline, unroll, and the O2 set")
	}
}
