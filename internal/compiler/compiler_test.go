package compiler

import (
	"fmt"
	"testing"

	"sevsim/internal/interp"
	"sevsim/internal/lang"
	"sevsim/internal/machine"
)

// targets returns the two backend targets with their machine configs.
func targets() []struct {
	tgt Target
	cfg machine.Config
} {
	return []struct {
		tgt Target
		cfg machine.Config
	}{
		{Target{XLEN: 32, NumArchRegs: 16}, machine.CortexA15Like()},
		{Target{XLEN: 64, NumArchRegs: 32}, machine.CortexA72Like()},
	}
}

// runDifferential compiles src at every optimization level for both
// targets, executes each binary on the cycle-level machine, and checks
// the output stream against the reference interpreter.
func runDifferential(t *testing.T, name, src string) {
	t.Helper()
	for _, tc := range targets() {
		want, err := interp.Run(mustParse(t, src), tc.tgt.XLEN, 50_000_000)
		if err != nil {
			t.Fatalf("%s xlen=%d: interp: %v", name, tc.tgt.XLEN, err)
		}
		for _, level := range Levels {
			prog, err := Compile(src, name, level, tc.tgt)
			if err != nil {
				t.Fatalf("%s %v xlen=%d: compile: %v", name, level, tc.tgt.XLEN, err)
			}
			m := machine.New(tc.cfg, prog)
			res := m.Run(200_000_000)
			if res.Outcome != machine.OutcomeOK {
				t.Fatalf("%s %v %s: outcome %v (%s) after %d cycles",
					name, level, tc.cfg.Name, res.Outcome, res.Reason, res.Cycles)
			}
			if len(res.Output) != len(want) {
				t.Fatalf("%s %v %s: %d outputs, want %d\n got %v\nwant %v",
					name, level, tc.cfg.Name, len(res.Output), len(want), trim(res.Output), trim(want))
			}
			for i := range want {
				if res.Output[i] != want[i] {
					t.Fatalf("%s %v %s: output[%d] = %#x, want %#x",
						name, level, tc.cfg.Name, i, res.Output[i], want[i])
				}
			}
		}
	}
}

func trim(v []uint64) []uint64 {
	if len(v) > 16 {
		return v[:16]
	}
	return v
}

func mustParse(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestArithmeticProgram(t *testing.T) {
	runDifferential(t, "arith", `
func main() {
	var int a = 12345;
	var int b = 678;
	out(a + b);
	out(a - b);
	out(a * b);
	out(a / b);
	out(a % b);
	out(a & b);
	out(a | b);
	out(a ^ b);
	out(a << 3);
	out(a >> 2);
	out(-a);
	out(~a);
	out(!a);
	out(!0);
	out(a < b);
	out(a > b);
	out(a <= b);
	out(a >= b);
	out(a == b);
	out(a != b);
	out(a / 0);
	out(a % 0);
}`)
}

func TestNegativeDivision(t *testing.T) {
	runDifferential(t, "negdiv", `
func main() {
	var int a = 0 - 7;
	out(a / 2);     // -3 (truncating)
	out(a % 2);     // -1
	out(a / 4);
	out((0-100) / 8);
	out((0-100) % 8);
	out(a >> 1);    // arithmetic: -4
}`)
}

func TestGlobalsAndArrays(t *testing.T) {
	runDifferential(t, "globals", `
global int counter;
global int table[32];

func bump(int by) int {
	counter = counter + by;
	return counter;
}

func main() {
	var int i;
	for (i = 0; i < 32; i = i + 1) {
		table[i] = i * i;
	}
	var int sum = 0;
	for (i = 0; i < 32; i = i + 1) {
		sum = sum + table[i];
	}
	out(sum);
	out(bump(5));
	out(bump(7));
	out(counter);
}`)
}

func TestLocalArraysAndArrayParams(t *testing.T) {
	runDifferential(t, "localarr", `
func fill(int buf[], int n, int seed) {
	var int i;
	for (i = 0; i < n; i = i + 1) {
		seed = (seed * 1103515245 + 12345) & 2147483647;
		buf[i] = seed % 1000;
	}
}

func sum(int buf[], int n) int {
	var int s = 0;
	var int i;
	for (i = 0; i < n; i = i + 1) {
		s = s + buf[i];
	}
	return s;
}

func main() {
	var int a[64];
	var int b[16];
	fill(a, 64, 1);
	fill(b, 16, 99);
	out(sum(a, 64));
	out(sum(b, 16));
	out(sum(a, 64) + sum(b, 16));
}`)
}

func TestControlFlow(t *testing.T) {
	runDifferential(t, "control", `
func classify(int x) int {
	if (x < 0) {
		return 0 - 1;
	} else if (x == 0) {
		return 0;
	} else if (x < 10 || x == 42) {
		return 1;
	} else if (x >= 100 && x < 200) {
		return 2;
	}
	return 3;
}

func main() {
	var int i;
	for (i = 0 - 5; i < 250; i = i + 7) {
		out(classify(i));
	}
	var int n = 0;
	while (1) {
		n = n + 1;
		if (n == 13) { break; }
	}
	out(n);
	var int s = 0;
	for (i = 0; i < 20; i = i + 1) {
		if (i % 3 == 0) { continue; }
		s = s + i;
	}
	out(s);
}`)
}

func TestRecursion(t *testing.T) {
	runDifferential(t, "recursion", `
func fib(int n) int {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}

func ack(int m, int n) int {
	if (m == 0) { return n + 1; }
	if (n == 0) { return ack(m - 1, 1); }
	return ack(m - 1, ack(m, n - 1));
}

func main() {
	out(fib(15));
	out(ack(2, 3));
}`)
}

func TestManyArguments(t *testing.T) {
	runDifferential(t, "manyargs", `
func combine(int a, int b, int c, int d, int e, int f, int g) int {
	return a + b*2 + c*3 + d*4 + e*5 + f*6 + g*7;
}

func main() {
	out(combine(1, 2, 3, 4, 5, 6, 7));
	out(combine(7, 6, 5, 4, 3, 2, 1));
}`)
}

func TestShortCircuitSideEffects(t *testing.T) {
	runDifferential(t, "shortcircuit", `
global int calls;

func probe(int v) int {
	calls = calls + 1;
	return v;
}

func main() {
	calls = 0;
	if (probe(0) && probe(1)) { out(999); }
	out(calls); // 1: rhs not evaluated
	calls = 0;
	if (probe(1) || probe(1)) { out(7); }
	out(calls); // 1
	var int x = probe(0) || probe(2);
	out(x);     // 1 (normalized boolean)
	out(calls); // 3
}`)
}

func TestRegisterPressure(t *testing.T) {
	// More simultaneously live values than allocatable registers on the
	// 16-register target forces spilling.
	runDifferential(t, "pressure", `
func main() {
	var int a = 1; var int b = 2; var int c = 3; var int d = 4;
	var int e = 5; var int f = 6; var int g = 7; var int h = 8;
	var int i = 9; var int j = 10; var int k = 11; var int l = 12;
	var int m = 13; var int n = 14; var int o = 15; var int p = 16;
	var int q = a + b; var int r = c + d; var int s = e + f;
	var int t = g + h; var int u = i + j; var int v = k + l;
	var int w = m + n; var int x = o + p;
	out(a+b+c+d+e+f+g+h+i+j+k+l+m+n+o+p);
	out(q*r + s*t + u*v + w*x);
	out((a|b|c|d) ^ (e&f&g&h) + (q<<2) - (r>>1));
}`)
}

func TestLoopNest(t *testing.T) {
	runDifferential(t, "loopnest", `
global int grid[256];

func main() {
	var int i; var int j;
	for (i = 0; i < 16; i = i + 1) {
		for (j = 0; j < 16; j = j + 1) {
			grid[i*16 + j] = (i + 1) * (j + 2);
		}
	}
	var int trace = 0;
	for (i = 0; i < 16; i = i + 1) {
		trace = trace + grid[i*16 + i];
	}
	out(trace);
	// Loop-invariant expressions to exercise LICM.
	var int base = 3;
	var int acc = 0;
	for (i = 0; i < 100; i = i + 1) {
		acc = acc + base * 17 + (base << 4) - (base / 2);
	}
	out(acc);
}`)
}

func TestOverflowWrapping(t *testing.T) {
	runDifferential(t, "overflow", `
func main() {
	var int big = 2000000000;
	out(big + big);         // wraps on 32-bit, not on 64-bit
	out(big * 3);
	var int x = 1;
	var int i;
	for (i = 0; i < 40; i = i + 1) {
		x = x * 2;
	}
	out(x); // 2^40: zero on 32-bit
}`)
}

func TestCompileErrorsSurface(t *testing.T) {
	_, err := Compile("func main() { x = 1; }", "bad", O0, Target{XLEN: 32, NumArchRegs: 16})
	if err == nil {
		t.Fatal("expected compile error")
	}
}

func TestCodeSizeGrowsAtO3(t *testing.T) {
	src := `
func helper(int x) int { return x * 3 + 1; }
func main() {
	var int i; var int s = 0;
	for (i = 0; i < 50; i = i + 1) {
		s = s + helper(i);
	}
	out(s);
}`
	tgt := Target{XLEN: 32, NumArchRegs: 16}
	sizes := map[OptLevel]int{}
	for _, level := range Levels {
		p, err := Compile(src, "size", level, tgt)
		if err != nil {
			t.Fatal(err)
		}
		sizes[level] = len(p.Code)
	}
	if sizes[O1] >= sizes[O0] {
		t.Errorf("O1 code (%d) should be smaller than O0 (%d)", sizes[O1], sizes[O0])
	}
	if sizes[O3] <= sizes[O2] {
		t.Errorf("O3 code (%d words) should exceed O2 (%d words): unrolling+inlining grow text", sizes[O3], sizes[O2])
	}
}

func TestOptimizedCodeIsFaster(t *testing.T) {
	src := `
global int data[512];
func main() {
	var int i;
	for (i = 0; i < 512; i = i + 1) {
		data[i] = (i * 7 + 3) % 256;
	}
	var int s = 0;
	var int rounds = 0;
	for (rounds = 0; rounds < 10; rounds = rounds + 1) {
		for (i = 0; i < 512; i = i + 1) {
			s = s + data[i] * 2 + rounds;
		}
	}
	out(s);
}`
	for _, tc := range targets() {
		var cycles [4]uint64
		for _, level := range Levels {
			p, err := Compile(src, "perf", level, tc.tgt)
			if err != nil {
				t.Fatal(err)
			}
			res := machine.New(tc.cfg, p).Run(100_000_000)
			if res.Outcome != machine.OutcomeOK {
				t.Fatalf("%v: %v %s", level, res.Outcome, res.Reason)
			}
			cycles[level] = res.Cycles
		}
		if cycles[O1] >= cycles[O0] {
			t.Errorf("%s: O1 (%d cycles) not faster than O0 (%d)", tc.cfg.Name, cycles[O1], cycles[O0])
		}
		if float64(cycles[O0])/float64(cycles[O2]) < 1.5 {
			t.Errorf("%s: O2 speedup over O0 only %.2fx", tc.cfg.Name, float64(cycles[O0])/float64(cycles[O2]))
		}
		t.Logf("%s cycles: O0=%d O1=%d O2=%d O3=%d", tc.cfg.Name, cycles[0], cycles[1], cycles[2], cycles[3])
	}
}

func TestIRStringRendering(t *testing.T) {
	prog := mustParse(t, `func main() { var int x = 1; out(x + 2); }`)
	mod, err := Lower(prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := mod.ByName["main"].String()
	if s == "" {
		t.Fatal("empty IR dump")
	}
	for _, want := range []string{"func main", "const 1", "out"} {
		if !contains(s, want) {
			t.Errorf("IR dump missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

// TestRandomExpressionPrograms cross-checks compiler+CPU against the
// interpreter on generated straight-line expression programs.
func TestRandomExpressionPrograms(t *testing.T) {
	ops := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "<", ">", "==", "!="}
	seed := int64(12345)
	next := func() int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) & 0xffff
	}
	for round := 0; round < 8; round++ {
		src := "func main() {\n"
		src += fmt.Sprintf("  var int a = %d;\n  var int b = %d;\n  var int c = %d;\n",
			next(), next()+1, next())
		expr := "a"
		for i := 0; i < 12; i++ {
			v := []string{"a", "b", "c", fmt.Sprint(next() % 64)}[next()%4]
			op := ops[next()%int64(len(ops))]
			if op == "<<" || op == ">>" {
				v = fmt.Sprint(next() % 8)
			}
			expr = "(" + expr + " " + op + " " + v + ")"
		}
		src += "  out(" + expr + ");\n}\n"
		runDifferential(t, fmt.Sprintf("random%d", round), src)
	}
}

func TestLevelResolution(t *testing.T) {
	for in, want := range map[string]OptLevel{"O0": O0, "o1": O1, "2": O2, "O3": O3} {
		lvl, err := ParseLevel(in)
		if err != nil || lvl != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, lvl, err)
		}
	}
	for _, in := range []string{"O9", "", "O", "3O"} {
		if _, err := ParseLevel(in); err == nil {
			t.Errorf("bad level %q accepted", in)
		}
	}
}
