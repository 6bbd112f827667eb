package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// AsmError is an assembler diagnostic with a line number.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string { return fmt.Sprintf("asm:%d: %s", e.Line, e.Msg) }

func asmErr(line int, format string, args ...any) error {
	return &AsmError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Asm assembles SEV assembly text into instructions. Supported syntax
// (one instruction or label per line; ';' and '//' start comments):
//
//	loop:                    ; label
//	  addi a0, zr, 42        ; I-type ALU
//	  lw   t0, 8(sp)         ; loads/stores use offset(base)
//	  beq  a0, zr, done      ; branches take a label (or numeric offset)
//	  jal  ra, loop          ; jumps take a label
//	  jalr zr, 0(ra)
//	  out  a0
//	  halt
//
// Registers are written by convention name (zr, sp, ra, a0-a3, t0-t2,
// s0-s21) or as rN.
func Asm(src string) ([]Instr, error) {
	type pending struct {
		instrIdx int
		label    string
		line     int
	}
	var (
		instrs  []Instr
		lines   []int // source line of each instruction, for diagnostics
		labels  = map[string]int{}
		fixups  []pending
		lineNum int
	)
	for _, raw := range strings.Split(src, "\n") {
		lineNum++
		line := raw
		if i := strings.IndexAny(line, ";"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly followed by an instruction on the same line).
		for {
			if i := strings.Index(line, ":"); i >= 0 && !strings.ContainsAny(line[:i], " \t(") {
				name := strings.TrimSpace(line[:i])
				if _, dup := labels[name]; dup {
					return nil, asmErr(lineNum, "duplicate label %q", name)
				}
				labels[name] = len(instrs)
				line = strings.TrimSpace(line[i+1:])
				continue
			}
			break
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(fields) == 0 {
			return nil, asmErr(lineNum, "expected an instruction, got %q", line)
		}
		mn := strings.ToLower(fields[0])
		ops := fields[1:]
		op, ok := opByName(mn)
		if !ok {
			return nil, asmErr(lineNum, "unknown mnemonic %q", mn)
		}
		in := Instr{Op: op}
		need := func(n int) error {
			if len(ops) != n {
				return asmErr(lineNum, "%s expects %d operands, got %d", mn, n, len(ops))
			}
			return nil
		}
		switch {
		case op == OpOut:
			if err := need(1); err != nil {
				return nil, err
			}
			var err error
			if in.Rs1, err = regOf(ops[0], lineNum); err != nil {
				return nil, err
			}
		case op.Format() == FmtR:
			if err := need(3); err != nil {
				return nil, err
			}
			var err error
			if in.Rd, err = regOf(ops[0], lineNum); err != nil {
				return nil, err
			}
			if in.Rs1, err = regOf(ops[1], lineNum); err != nil {
				return nil, err
			}
			if in.Rs2, err = regOf(ops[2], lineNum); err != nil {
				return nil, err
			}
		case op.IsLoad() || op.IsStore() || op == OpJalr:
			if err := need(2); err != nil {
				return nil, err
			}
			var err error
			if in.Rd, err = regOf(ops[0], lineNum); err != nil {
				return nil, err
			}
			off, base, err := memOperand(ops[1], lineNum)
			if err != nil {
				return nil, err
			}
			in.Rs1 = base
			in.Imm = off
		case op == OpLui:
			if err := need(2); err != nil {
				return nil, err
			}
			var err error
			if in.Rd, err = regOf(ops[0], lineNum); err != nil {
				return nil, err
			}
			if in.Imm, err = immOf(ops[1], lineNum); err != nil {
				return nil, err
			}
		case op.Format() == FmtI:
			if err := need(3); err != nil {
				return nil, err
			}
			var err error
			if in.Rd, err = regOf(ops[0], lineNum); err != nil {
				return nil, err
			}
			if in.Rs1, err = regOf(ops[1], lineNum); err != nil {
				return nil, err
			}
			if in.Imm, err = immOf(ops[2], lineNum); err != nil {
				return nil, err
			}
		case op.IsBranch():
			if err := need(3); err != nil {
				return nil, err
			}
			var err error
			if in.Rs1, err = regOf(ops[0], lineNum); err != nil {
				return nil, err
			}
			if in.Rs2, err = regOf(ops[1], lineNum); err != nil {
				return nil, err
			}
			if imm, err2 := immOf(ops[2], lineNum); err2 == nil {
				in.Imm = imm
			} else {
				fixups = append(fixups, pending{len(instrs), ops[2], lineNum})
			}
		case op == OpJal:
			if err := need(2); err != nil {
				return nil, err
			}
			var err error
			if in.Rd, err = regOf(ops[0], lineNum); err != nil {
				return nil, err
			}
			if imm, err2 := immOf(ops[1], lineNum); err2 == nil {
				in.Imm = imm
			} else {
				fixups = append(fixups, pending{len(instrs), ops[1], lineNum})
			}
		default: // halt, nop
			if err := need(0); err != nil {
				return nil, err
			}
		}
		instrs = append(instrs, in)
		lines = append(lines, lineNum)
	}
	for _, fx := range fixups {
		target, ok := labels[fx.label]
		if !ok {
			return nil, asmErr(fx.line, "undefined label %q", fx.label)
		}
		instrs[fx.instrIdx].Imm = int32(target - fx.instrIdx - 1)
	}
	// Validate immediate encode ranges after fixups, so both numeric
	// offsets and resolved labels are covered: Encode truncates to the
	// format's field width, which would silently retarget an out-of-range
	// branch instead of failing here.
	for i, in := range instrs {
		if err := checkImmRange(in, lines[i]); err != nil {
			return nil, err
		}
	}
	return instrs, nil
}

// immRange returns the encodable immediate range of a format.
func immRange(f Format) (lo, hi int32, ok bool) {
	switch f {
	case FmtI, FmtB:
		return -1 << 15, 1<<15 - 1, true // 16-bit field, sign-extended on decode
	case FmtJ:
		return -1 << 20, 1<<20 - 1, true // 21-bit field, sign-extended on decode
	}
	return 0, 0, false
}

// checkImmRange rejects immediates that Encode would truncate.
func checkImmRange(in Instr, line int) error {
	lo, hi, ok := immRange(in.Op.Format())
	if !ok {
		return nil
	}
	if in.Imm < lo || in.Imm > hi {
		what := "immediate"
		if in.Op.IsBranch() || in.Op == OpJal {
			what = "branch offset"
		}
		return asmErr(line, "%s %s %d out of range [%d, %d]", in.Op.Name(), what, in.Imm, lo, hi)
	}
	return nil
}

func opByName(name string) (Opcode, bool) {
	for op := Opcode(1); op < numOpcodes; op++ {
		if op.Valid() && op.Name() == name {
			return op, true
		}
	}
	return 0, false
}

func regOf(s string, line int) (uint8, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "zr", "zero":
		return RegZero, nil
	case "sp":
		return RegSP, nil
	case "ra":
		return RegRA, nil
	}
	if len(s) >= 2 {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 {
			switch s[0] {
			case 'a':
				if n <= 3 {
					return uint8(RegA0 + n), nil
				}
			case 't':
				if n <= 2 {
					return uint8(RegT0 + n), nil
				}
			case 's':
				if RegS0+n < 32 {
					return uint8(RegS0 + n), nil
				}
			case 'r':
				if n < 32 {
					return uint8(n), nil
				}
			}
		}
	}
	return 0, asmErr(line, "bad register %q", s)
}

func immOf(s string, line int) (int32, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 32)
	if err != nil {
		return 0, asmErr(line, "bad immediate %q", s)
	}
	return int32(v), nil
}

// memOperand parses "offset(base)".
func memOperand(s string, line int) (int32, uint8, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, asmErr(line, "expected offset(base), got %q", s)
	}
	off := int32(0)
	if open > 0 {
		v, err := immOf(s[:open], line)
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	base, err := regOf(s[open+1:len(s)-1], line)
	if err != nil {
		return 0, 0, err
	}
	return off, base, nil
}
