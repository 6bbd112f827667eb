package binanalysis

import (
	"testing"

	"sevsim/internal/isa"
)

// call/return pair: main calls f, f saves and restores ra on the stack.
func callProg() []isa.Instr {
	return []isa.Instr{
		isa.Jal(isa.RegRA, 1), // 0: call f at 2
		isa.Halt(),            // 1
		isa.I(isa.OpAddi, isa.RegSP, isa.RegSP, -8), // 2: f
		isa.Store(isa.OpSw, isa.RegRA, isa.RegSP, 0),
		isa.Load(isa.OpLw, isa.RegRA, isa.RegSP, 0),
		isa.I(isa.OpAddi, isa.RegSP, isa.RegSP, 8),
		isa.Jalr(isa.RegZero, isa.RegRA, 0), // 6: return
	}
}

func TestBuildCFG(t *testing.T) {
	g, err := BuildCFG(callProg())
	if err != nil {
		t.Fatal(err)
	}
	if got := g.FuncEntries; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("FuncEntries = %v, want [0 2]", got)
	}
	if got := g.RetPoints; len(got) != 1 || got[0] != 1 {
		t.Fatalf("RetPoints = %v, want [1]", got)
	}
	// Blocks: [0,1) call, [1,2) halt, [2,7) f body ending in return.
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %+v, want 3", g.Blocks)
	}
	if s := g.Blocks[0].Succs; len(s) != 1 || g.Blocks[s[0]].Start != 2 {
		t.Fatalf("call block succs = %v", s)
	}
	if s := g.Blocks[1].Succs; len(s) != 0 {
		t.Fatalf("halt block succs = %v, want none", s)
	}
	ret := g.Blocks[2]
	if !ret.IsRet || len(ret.Succs) != 1 || g.Blocks[ret.Succs[0]].Start != 1 {
		t.Fatalf("return block = %+v, want edge to return point 1", ret)
	}
}

func TestBuildCFGEmpty(t *testing.T) {
	if _, err := BuildCFG(nil); err == nil {
		t.Fatal("want error for empty program")
	}
}

func TestLivenessStraightLine(t *testing.T) {
	a, err := Analyze([]isa.Instr{
		isa.I(isa.OpAddi, isa.RegT0, isa.RegZero, 1), // 0
		isa.I(isa.OpAddi, isa.RegT1, isa.RegZero, 2), // 1
		isa.R(isa.OpAdd, isa.RegA0, isa.RegT0, isa.RegT1),
		isa.Out(isa.RegA0), // 3
		isa.Halt(),         // 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Live[1].Has(isa.RegT0) {
		t.Errorf("t0 should be live out of its def: %v", a.Live[1])
	}
	if a.Live[1].Has(isa.RegT1) {
		t.Errorf("t1 live before its def: %v", a.Live[1])
	}
	if a.Live[3].Has(isa.RegT0) || !a.Live[3].Has(isa.RegA0) {
		t.Errorf("after add, want t0 dead and a0 live: %v", a.Live[3])
	}
	// After out, every register but the hard-wired zero is dead.
	if dead := a.Dead(4, 16); dead.Count() != 15 || dead.Has(isa.RegZero) {
		t.Errorf("Dead(4) = %v, want all 15 non-zero regs", dead)
	}
}

func TestLivenessLoop(t *testing.T) {
	// t0 counts down; live around the back edge.
	a, err := Analyze([]isa.Instr{
		isa.I(isa.OpAddi, isa.RegT0, isa.RegZero, 10),     // 0
		isa.I(isa.OpAddi, isa.RegT0, isa.RegT0, -1),       // 1: loop body
		isa.Branch(isa.OpBne, isa.RegT0, isa.RegZero, -2), // 2: -> 1
		isa.Halt(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Live[3].Has(isa.RegT0) {
		t.Errorf("t0 must stay live around the back edge: %v", a.Live[3])
	}
}

func TestUnknownJalrAllLive(t *testing.T) {
	// An indirect jump that is not a return: every register must be
	// considered live at its out edge.
	a, err := Analyze([]isa.Instr{
		isa.Jalr(isa.RegZero, isa.RegT0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dead := a.Dead(1, 16); dead != 0 {
		t.Errorf("Dead past unknown jalr = %v, want empty", dead)
	}
}

func TestLifetimes(t *testing.T) {
	a, err := Analyze([]isa.Instr{
		isa.I(isa.OpAddi, isa.RegT0, isa.RegZero, 1), // 0: used at 3
		isa.I(isa.OpAddi, isa.RegT1, isa.RegZero, 2), // 1: used at 3
		isa.I(isa.OpAddi, isa.RegT2, isa.RegZero, 3), // 2: dead write
		isa.R(isa.OpAdd, isa.RegA0, isa.RegT0, isa.RegT1),
		isa.Out(isa.RegA0),
		isa.Halt(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dead := a.Dead(3, 16); !dead.Has(isa.RegT2) {
		t.Errorf("Dead(3) = %v, want the dead write t2 in it", dead)
	}
}

func TestInvariantsClean(t *testing.T) {
	a, err := Analyze(callProg())
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckInvariants(a); len(vs) != 0 {
		t.Fatalf("clean program, got violations: %v", vs)
	}
}

func TestInvariantViolations(t *testing.T) {
	cases := []struct {
		name string
		code []isa.Instr
		kind string
		idx  int
	}{
		{"target-range", []isa.Instr{
			isa.Branch(isa.OpBeq, isa.RegZero, isa.RegZero, 10),
			isa.Halt(),
		}, "target-range", 0},
		{"use-before-def", []isa.Instr{
			isa.Out(isa.RegT0),
			isa.Halt(),
		}, "use-before-def", 0},
		{"sp-write", []isa.Instr{
			isa.R(isa.OpAdd, isa.RegSP, isa.RegT0, isa.RegT1),
			isa.Halt(),
		}, "sp-write", 0},
		{"sp-imbalance", []isa.Instr{
			isa.Jal(isa.RegRA, 1), // call f
			isa.Halt(),
			isa.I(isa.OpAddi, isa.RegSP, isa.RegSP, -8), // f: push, never pop
			isa.Jalr(isa.RegZero, isa.RegRA, 0),
		}, "sp-imbalance", 3},
		{"sp-inconsistent", []isa.Instr{
			isa.Branch(isa.OpBeq, isa.RegT0, isa.RegZero, 2), // -> 3
			isa.I(isa.OpAddi, isa.RegSP, isa.RegSP, -8),
			isa.Jal(isa.RegZero, 0), // -> 3
			isa.Halt(),              // 3: join with offsets 0 and -8
		}, "sp-inconsistent", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Analyze(tc.code)
			if err != nil {
				t.Fatal(err)
			}
			vs := CheckInvariants(a)
			for _, v := range vs {
				if v.Kind == tc.kind && v.Idx == tc.idx {
					return
				}
			}
			t.Fatalf("want %s at %d, got %v", tc.kind, tc.idx, vs)
		})
	}
}
