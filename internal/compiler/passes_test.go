package compiler

import (
	"strings"
	"testing"

	"sevsim/internal/lang"
)

// lowerSrc parses and lowers a program for pass-level inspection.
func lowerSrc(t *testing.T, src string, wordSize int) *Module {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Lower(prog, wordSize)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func countOps(f *Func, op Op) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func countBin(f *Func, kind lang.BinOp) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == IRBin && b.Instrs[i].Kind == kind {
				n++
			}
		}
	}
	return n
}

func TestConstFoldCollapsesExpressions(t *testing.T) {
	mod := lowerSrc(t, `func main() { out(2 * 3 + 4); }`, 4)
	f := mod.ByName["main"]
	RunO1(f, 32)
	if n := countOps(f, IRBin); n != 0 {
		t.Errorf("constant expression left %d binops:\n%s", n, f.String())
	}
	if !strings.Contains(f.String(), "const 10") {
		t.Errorf("folded constant missing:\n%s", f.String())
	}
}

func TestConstFoldWrapsAtTargetWidth(t *testing.T) {
	src := `func main() { var int big = 2000000000; out(big * 3); }`
	mod32 := lowerSrc(t, src, 4)
	RunO1(mod32.ByName["main"], 32)
	if !strings.Contains(mod32.ByName["main"].String(), "const 1705032704") {
		t.Errorf("32-bit fold wrong:\n%s", mod32.ByName["main"].String())
	}
	mod64 := lowerSrc(t, src, 8)
	RunO1(mod64.ByName["main"], 64)
	if !strings.Contains(mod64.ByName["main"].String(), "const 6000000000") {
		t.Errorf("64-bit fold wrong:\n%s", mod64.ByName["main"].String())
	}
}

func TestLVNRemovesRedundantLoads(t *testing.T) {
	src := `
global int g;
func main() {
	var int a = g + g; // one load suffices
	out(a);
}`
	mod := lowerSrc(t, src, 4)
	f := mod.ByName["main"]
	before := countOps(f, IRLoad)
	RunO1(f, 32)
	after := countOps(f, IRLoad)
	if before != 2 || after != 1 {
		t.Errorf("loads before=%d after=%d (want 2 -> 1)\n%s", before, after, f.String())
	}
}

func TestLVNRespectsStores(t *testing.T) {
	src := `
global int g;
func main() {
	var int a = g;
	g = a + 1;
	var int b = g; // must reload after the store
	out(a + b);
}`
	mod := lowerSrc(t, src, 4)
	f := mod.ByName["main"]
	RunO1(f, 32)
	if n := countOps(f, IRLoad); n != 2 {
		t.Errorf("loads after O1 = %d, want 2 (store invalidates):\n%s", n, f.String())
	}
}

func TestDCERemovesDeadCode(t *testing.T) {
	src := `func main() { var int unused = 3 * 7; out(1); }`
	mod := lowerSrc(t, src, 4)
	f := mod.ByName["main"]
	RunO1(f, 32)
	// Only the out's constant should remain.
	total := 0
	for _, b := range f.Blocks {
		total += len(b.Instrs)
	}
	if total > 3 { // const 1, out, ret
		t.Errorf("dead code survived (%d instrs):\n%s", total, f.String())
	}
}

func TestCleanupMergesStraightLine(t *testing.T) {
	src := `func main() { var int x = 1; if (1) { x = 2; } out(x); }`
	mod := lowerSrc(t, src, 4)
	f := mod.ByName["main"]
	RunO1(f, 32)
	if len(f.Blocks) != 1 {
		t.Errorf("constant branch not collapsed to one block:\n%s", f.String())
	}
}

func TestLICMHoistsInvariant(t *testing.T) {
	src := `
global int out1[64];
func main() {
	var int a = 5;
	var int b = 7;
	var int i;
	for (i = 0; i < 64; i = i + 1) {
		out1[i] = a * b + i; // a*b is invariant but not constant-foldable? it is; use params
	}
	out(out1[3]);
}`
	// a*b folds to a constant here, so use a version with an opaque value.
	src = `
global int data[64];
func run(int a, int b) {
	var int i;
	for (i = 0; i < 64; i = i + 1) {
		data[i] = a * b + i;
	}
}
func main() { run(3, 9); out(data[5]); }`
	mod := lowerSrc(t, src, 4)
	f := mod.ByName["run"]
	tgt := Target{XLEN: 32, NumArchRegs: 16}
	OptimizeWith(mod, LevelPasses(O2, tgt), tgt)
	// The multiply must have left every loop: find the loop and check.
	loops := NaturalLoops(f)
	if len(loops) == 0 {
		t.Fatalf("loop disappeared:\n%s", f.String())
	}
	for _, lp := range loops {
		for b := range lp.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == IRBin && in.Kind == lang.OpMul {
					t.Errorf("invariant multiply still in loop:\n%s", f.String())
				}
			}
		}
	}
}

func TestStrengthReductionPow2(t *testing.T) {
	src := `func run(int x) int { return x * 8 + x / 4; }
func main() { out(run(40)); }`
	mod := lowerSrc(t, src, 4)
	f := mod.ByName["run"]
	RunO1(f, 32)
	StrengthReduce(f, 32)
	if n := countBin(f, lang.OpMul); n != 0 {
		t.Errorf("mul by 8 not reduced:\n%s", f.String())
	}
	if n := countBin(f, lang.OpDiv); n != 0 {
		t.Errorf("div by 4 not reduced:\n%s", f.String())
	}
	if n := countBin(f, lang.OpShl); n == 0 {
		t.Errorf("expected shifts after reduction:\n%s", f.String())
	}
}

func TestStrengthReductionMulByThree(t *testing.T) {
	src := `func run(int x) int { return x * 3; }
func main() { out(run(5)); }`
	mod := lowerSrc(t, src, 4)
	f := mod.ByName["run"]
	RunO1(f, 32)
	StrengthReduce(f, 32)
	if countBin(f, lang.OpMul) != 0 || countBin(f, lang.OpShl) == 0 || countBin(f, lang.OpAdd) == 0 {
		t.Errorf("x*3 should become shift+add:\n%s", f.String())
	}
}

func TestInlineLeafFunction(t *testing.T) {
	src := `
func tiny(int x) int { return x * 2 + 1; }
func main() { out(tiny(10) + tiny(20)); }`
	mod := lowerSrc(t, src, 4)
	InlineCalls(mod)
	f := mod.ByName["main"]
	if n := countOps(f, IRCall); n != 0 {
		t.Errorf("%d calls remain after inlining:\n%s", n, f.String())
	}
}

func TestInlineSkipsRecursionAndArrays(t *testing.T) {
	src := `
func fib(int n) int { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
func arr() int { var int a[4]; a[0] = 1; return a[0]; }
func main() { out(fib(5) + arr()); }`
	mod := lowerSrc(t, src, 4)
	InlineCalls(mod)
	f := mod.ByName["main"]
	if n := countOps(f, IRCall); n != 2 {
		t.Errorf("recursive/array callees should not inline, %d calls remain:\n%s", n, f.String())
	}
}

func TestUnrollDuplicatesLoop(t *testing.T) {
	src := `
global int data[32];
func main() {
	var int i;
	for (i = 0; i < 32; i = i + 1) {
		data[i] = i * 2;
	}
	out(data[7]);
}`
	mod := lowerSrc(t, src, 4)
	f := mod.ByName["main"]
	RunO1(f, 32)
	before := 0
	for _, b := range f.Blocks {
		before += len(b.Instrs)
	}
	UnrollLoops(f)
	RunO1(f, 32)
	after := 0
	for _, b := range f.Blocks {
		after += len(b.Instrs)
	}
	if after <= before {
		t.Errorf("unroll did not grow code: %d -> %d", before, after)
	}
	// Unrolled temps must remain single-def so immediate selection works.
	defs := DefCounts(f)
	consts := ConstDefs(f)
	if len(consts) == 0 {
		t.Errorf("no single-def constants after unroll (defs=%v)", defs)
	}
}

func TestScheduleKeepsSemantics(t *testing.T) {
	src := `
global int a[16];
func main() {
	var int i;
	for (i = 0; i < 16; i = i + 1) { a[i] = i; }
	var int x = a[3];
	a[4] = x + 1;
	var int y = a[4];
	out(x + y);
}`
	mod := lowerSrc(t, src, 4)
	f := mod.ByName["main"]
	RunO1(f, 32)
	Schedule(f)
	// Memory order within blocks must be preserved: the load of a[4]
	// must still follow the store. We verify behaviourally via the
	// whole-program differential tests; here just check structure sanity.
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			t.Error("schedule produced empty block")
		}
		if !b.Instrs[len(b.Instrs)-1].IsTerm() {
			t.Error("schedule lost block terminator")
		}
	}
}

func TestCrossJumpMergesIdenticalBlocks(t *testing.T) {
	// CrossJump merges structurally identical blocks (same instructions,
	// same values, same successors). Build such a CFG directly: a
	// diamond whose arms are exact copies.
	f := &Func{Name: "x", UserVals: map[Value]bool{}}
	entry := f.NewBlock()
	armA := f.NewBlock()
	armB := f.NewBlock()
	join := f.NewBlock()
	f.Entry = entry
	cond := f.NewValue()
	v := f.NewValue()
	entry.Instrs = []Instr{
		{Op: IRConst, Dst: cond, Const: 0},
		{Op: IRCondBr, A: cond, Targets: [2]*Block{armA, armB}},
	}
	arm := []Instr{
		{Op: IRConst, Dst: v, Const: 5},
		{Op: IRBr, Targets: [2]*Block{join}},
	}
	armA.Instrs = append([]Instr(nil), arm...)
	armB.Instrs = append([]Instr(nil), arm...)
	join.Instrs = []Instr{{Op: IROut, A: v}, {Op: IRRet, A: NoValue}}
	f.NumVals = 2

	if !CrossJump(f) {
		t.Fatalf("identical arms not merged:\n%s", f.String())
	}
	if len(f.Blocks) != 3 {
		t.Errorf("blocks after merge = %d, want 3:\n%s", len(f.Blocks), f.String())
	}
}

func TestDominatorsAndLoops(t *testing.T) {
	src := `
func main() {
	var int i; var int s = 0;
	for (i = 0; i < 8; i = i + 1) {
		var int j;
		for (j = 0; j < 8; j = j + 1) {
			s = s + j;
		}
	}
	out(s);
}`
	mod := lowerSrc(t, src, 4)
	f := mod.ByName["main"]
	RunO1(f, 32)
	loops := NaturalLoops(f)
	if len(loops) != 2 {
		t.Fatalf("expected 2 natural loops, got %d", len(loops))
	}
	idom := Dominators(f)
	for _, lp := range loops {
		if !Dominates(idom, f.Entry, lp.Header) {
			t.Error("entry must dominate loop headers")
		}
	}
}
