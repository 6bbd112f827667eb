package compiler

import (
	"fmt"
	"testing"

	"sevsim/internal/isa"
	"sevsim/internal/lang"
)

// verifyAllocation checks the fundamental register-allocation invariant
// over a function: at every instruction, two values that are both live
// and both assigned registers never share one, and no value is assigned
// a reserved or out-of-range register.
func verifyAllocation(t *testing.T, f *Func, tgt Target, o0 bool) {
	t.Helper()
	layout := RPO(f)
	alloc := Allocate(f, layout, tgt, o0)
	intervals := LiveIntervals(f, layout)

	for v := 0; v < f.NumVals; v++ {
		r := alloc.Reg[v]
		if r == NoReg {
			continue
		}
		if r >= uint8(tgt.NumArchRegs) {
			t.Errorf("v%d allocated out-of-range register %d", v, r)
		}
		switch r {
		case isa.RegZero, isa.RegSP, isa.RegRA, scratchA, scratchB, scratchC:
			t.Errorf("v%d allocated reserved register %s", v, isa.RegName(r))
		}
		if o0 && f.UserVals[Value(v)] {
			t.Errorf("user value v%d got a register at O0", v)
		}
	}

	// Pairwise interference: overlapping intervals must not share a
	// register.
	for a := 0; a < f.NumVals; a++ {
		if alloc.Reg[a] == NoReg {
			continue
		}
		for b := a + 1; b < f.NumVals; b++ {
			if alloc.Reg[b] != alloc.Reg[a] {
				continue
			}
			ia, ib := intervals[a], intervals[b]
			if ia.Start == 0 && ia.End == 0 || ib.Start == 0 && ib.End == 0 {
				continue
			}
			if ia.Start < ib.End && ib.Start < ia.End {
				t.Errorf("v%d and v%d share %s with overlapping intervals [%d,%d] [%d,%d]",
					a, b, isa.RegName(alloc.Reg[a]), ia.Start, ia.End, ib.Start, ib.End)
			}
		}
	}

	// Values living across calls must not sit in caller-saved registers.
	for v := 0; v < f.NumVals; v++ {
		r := alloc.Reg[v]
		if r == NoReg || !intervals[v].CrossCall {
			continue
		}
		if isa.CallerSaved(r) {
			t.Errorf("v%d lives across a call in caller-saved %s", v, isa.RegName(r))
		}
	}
}

// allocPrograms is a set of programs stressing different allocation
// shapes: high pressure, calls, loops, and spilled user variables.
var allocPrograms = []string{
	`func main() {
		var int a = 1; var int b = 2; var int c = 3; var int d = 4;
		var int e = 5; var int f = 6; var int g = 7; var int h = 8;
		var int i = 9; var int j = 10; var int k = 11; var int l = 12;
		out(a+b+c+d+e+f+g+h+i+j+k+l);
		out(a*l + b*k + c*j + d*i + e*h + f*g);
	}`,
	`func leaf(int x) int { return x + 1; }
	func main() {
		var int acc = 0;
		var int i;
		for (i = 0; i < 10; i = i + 1) {
			acc = acc + leaf(i) * leaf(acc);
		}
		out(acc);
	}`,
	`global int data[64];
	func main() {
		var int i; var int j;
		for (i = 0; i < 8; i = i + 1) {
			for (j = 0; j < 8; j = j + 1) {
				data[i*8+j] = i*j + i - j;
			}
		}
		out(data[37]);
	}`,
	`func many(int a, int b, int c, int d, int e, int f) int {
		return a + b*2 + c*3 + d*4 + e*5 + f*6;
	}
	func main() { out(many(1, 2, 3, 4, 5, 6)); }`,
}

func TestAllocationInvariants(t *testing.T) {
	targets := []Target{
		{XLEN: 32, NumArchRegs: 16},
		{XLEN: 64, NumArchRegs: 32},
	}
	for pi, src := range allocPrograms {
		for _, tgt := range targets {
			for _, level := range Levels {
				name := fmt.Sprintf("prog%d/x%d/%v", pi, tgt.XLEN, level)
				t.Run(name, func(t *testing.T) {
					prog, err := lang.Parse(src)
					if err != nil {
						t.Fatal(err)
					}
					mod, err := Lower(prog, tgt.WordSize())
					if err != nil {
						t.Fatal(err)
					}
					OptimizeWith(mod, LevelPasses(level, tgt), tgt)
					for _, f := range mod.Funcs {
						verifyAllocation(t, f, tgt, level == O0)
					}
				})
			}
		}
	}
}

// TestAllocationOnWorkloadShapes runs the verifier over every function
// of a recursion-heavy and a lookup-heavy program at O2 on the
// register-poor target — the configurations most likely to expose
// interference bugs.
func TestAllocationOnWorkloadShapes(t *testing.T) {
	src := `
global int pool[128];
global int top;

func push(int v) { pool[top] = v; top = top + 1; }
func pop() int { top = top - 1; return pool[top]; }

func hanoi(int n, int from, int to, int via) int {
	if (n == 0) { return 0; }
	var int moves = hanoi(n - 1, from, via, to);
	push(from * 10 + to);
	return moves + 1 + hanoi(n - 1, via, to, from);
}

func main() {
	out(hanoi(5, 1, 3, 2));
	out(top);
	out(pop());
}`
	tgt := Target{XLEN: 32, NumArchRegs: 16}
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Lower(prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	OptimizeWith(mod, LevelPasses(O2, tgt), tgt)
	for _, f := range mod.Funcs {
		verifyAllocation(t, f, tgt, false)
	}
}
