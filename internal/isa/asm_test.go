package isa

import (
	"slices"
	"strings"
	"testing"
)

// Programs the tests below assemble; FuzzAsm starts from them too.
const (
	asmBasic = `
; compute 6*7 and emit it
  addi a0, zr, 6
  addi a1, zr, 7
  mul  a2, a0, a1
  out  a2
  halt
`
	asmLabels = `
  addi a0, zr, 0
  addi a1, zr, 10
loop:
  addi a0, a0, 1
  blt  a0, a1, loop
  jal  zr, done
  nop
done:
  out a0
  halt
`
	asmMemory = `
  lw   t0, 8(sp)
  sw   t0, -4(a0)
  lbu  t1, (a1)
  jalr zr, 0(ra)
`
	asmDisassembly = `
  lui  s0, 16
  ori  s0, s0, 0x1234
  slt  a0, s0, a1
  sltiu a1, a0, 1
  bgeu a0, a1, 2
  sra  a2, a0, a1
  halt
`
)

func TestAsmBasicProgram(t *testing.T) {
	ins, err := Asm(asmBasic)
	if err != nil {
		t.Fatal(err)
	}
	want := []Instr{
		I(OpAddi, RegA0, RegZero, 6),
		I(OpAddi, RegA1, RegZero, 7),
		R(OpMul, RegA2, RegA0, RegA1),
		Out(RegA2),
		Halt(),
	}
	if len(ins) != len(want) {
		t.Fatalf("got %d instructions", len(ins))
	}
	for i := range want {
		if ins[i] != want[i] {
			t.Errorf("instr %d = %v, want %v", i, ins[i], want[i])
		}
	}
}

func TestAsmLabelsAndBranches(t *testing.T) {
	ins, err := Asm(asmLabels)
	if err != nil {
		t.Fatal(err)
	}
	// blt at index 3, loop label at index 2: offset = 2 - 3 - 1 = -2.
	if ins[3].Op != OpBlt || ins[3].Imm != -2 {
		t.Errorf("branch = %v", ins[3])
	}
	// jal at index 4, done at index 6: offset = 6 - 4 - 1 = 1.
	if ins[4].Op != OpJal || ins[4].Imm != 1 {
		t.Errorf("jump = %v", ins[4])
	}
}

func TestAsmMemoryOperands(t *testing.T) {
	ins, err := Asm(asmMemory)
	if err != nil {
		t.Fatal(err)
	}
	if ins[0] != Load(OpLw, RegT0, RegSP, 8) {
		t.Errorf("lw = %v", ins[0])
	}
	if ins[1] != Store(OpSw, RegT0, RegA0, -4) {
		t.Errorf("sw = %v", ins[1])
	}
	if ins[2] != Load(OpLbu, RegT1, RegA1, 0) {
		t.Errorf("lbu = %v", ins[2])
	}
	if ins[3] != Jalr(RegZero, RegRA, 0) {
		t.Errorf("jalr = %v", ins[3])
	}
}

func TestAsmRoundTripThroughDisassembly(t *testing.T) {
	// Assemble, disassemble each instruction, re-assemble: identical.
	first, err := Asm(asmDisassembly)
	if err != nil {
		t.Fatal(err)
	}
	var relisted []string
	for _, in := range first {
		relisted = append(relisted, in.String())
	}
	second, err := Asm(strings.Join(relisted, "\n"))
	if err != nil {
		t.Fatalf("re-assembly failed: %v\n%s", err, strings.Join(relisted, "\n"))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("round trip %d: %v vs %v", i, first[i], second[i])
		}
	}
}

// asmErrors are sources Asm must refuse, by what is wrong with them.
var asmErrors = map[string]string{
	"unknown mnemonic": "frob a0, a1, a2",
	"bad register":     "add a0, q9, a2",
	"operand count":    "add a0, a1",
	"bad immediate":    "addi a0, a1, xyz",
	"undefined label":  "jal ra, nowhere",
	"duplicate label":  "x:\nx:\n  halt",
	"bad mem operand":  "lw a0, 8",
	"no mnemonic":      ",",
}

func TestAsmErrors(t *testing.T) {
	for name, src := range asmErrors {
		if _, err := Asm(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestAsmImmediateRangeErrors(t *testing.T) {
	// Encode truncates immediates to the format's field width; the
	// assembler must reject anything that would not round-trip, with the
	// offending source line in the diagnostic.
	cases := []struct {
		name string
		src  string
		line int
	}{
		{"I-type too large", "nop\naddi a0, zr, 40000", 2},
		{"I-type too negative", "addi a0, zr, -40000", 1},
		{"branch offset too far", "beq a0, a1, 33000", 1},
		{"branch offset too negative", "nop\nnop\nbeq a0, a1, -33000", 3},
		{"jal offset too far", "jal ra, 2000000", 1},
		{"store offset too large", "sw a0, 70000(sp)", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Asm(tc.src)
			if err == nil {
				t.Fatal("expected range error")
			}
			ae, ok := err.(*AsmError)
			if !ok {
				t.Fatalf("error %v is not an *AsmError", err)
			}
			if ae.Line != tc.line {
				t.Errorf("error on line %d, want %d: %v", ae.Line, tc.line, err)
			}
			if !strings.Contains(ae.Msg, "out of range") {
				t.Errorf("unexpected message: %v", err)
			}
		})
	}
}

func TestAsmImmediateRangeBoundaries(t *testing.T) {
	// The extreme encodable values must still assemble and round-trip
	// through Encode/Decode unchanged.
	ins, err := Asm("addi a0, zr, 32767\naddi a1, zr, -32768")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int32{32767, -32768} {
		if got := Decode(ins[i].Encode()).Imm; got != want {
			t.Errorf("imm %d round-trips to %d, want %d", ins[i].Imm, got, want)
		}
	}
}

func TestAsmBranchFixupRangeChecked(t *testing.T) {
	// A label that resolves to an out-of-range offset must error too,
	// not just numeric offsets. 40,000 nops put the target beyond the
	// 16-bit branch field.
	var sb strings.Builder
	sb.WriteString("beq a0, a1, far\n")
	for i := 0; i < 40_000; i++ {
		sb.WriteString("nop\n")
	}
	sb.WriteString("far:\n  halt\n")
	_, err := Asm(sb.String())
	if err == nil {
		t.Fatal("expected range error for label fixup beyond branch reach")
	}
	ae, ok := err.(*AsmError)
	if !ok || ae.Line != 1 {
		t.Fatalf("want *AsmError on line 1, got %v", err)
	}
}

func TestAsmNumericRegisters(t *testing.T) {
	ins, err := Asm("add r5, r0, r31")
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].Rd != 5 || ins[0].Rs1 != 0 || ins[0].Rs2 != 31 {
		t.Errorf("numeric registers = %v", ins[0])
	}
}

// FuzzAsm: Asm never panics, and what it accepts is what the machine
// and the disassembly give back: every instruction survives Encode and
// Decode, and assembling the instructions' String lines returns the same
// instructions.
func FuzzAsm(f *testing.F) {
	for _, src := range []string{asmBasic, asmLabels, asmMemory, asmDisassembly, "add r5, r0, r31", "addi a0, zr, 32767\naddi a1, zr, -32768"} {
		f.Add(src)
	}
	for _, src := range asmErrors {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ins, err := Asm(src)
		if err != nil {
			return
		}
		lines := make([]string, len(ins))
		for i, in := range ins {
			if got := Decode(in.Encode()); got != in {
				t.Fatalf("instruction %d: %v decodes back as %v", i, in, got)
			}
			lines[i] = in.String()
		}
		again, err := Asm(strings.Join(lines, "\n"))
		if err != nil {
			t.Fatalf("reassembling the disassembly: %v\n%s", err, strings.Join(lines, "\n"))
		}
		if !slices.Equal(again, ins) {
			t.Fatalf("disassembly reassembles as %v, want %v", again, ins)
		}
	})
}
