package isa

// The integer semantics of the ALU opcodes, shared by the simulated core's
// execute stage and the static analyses' constant evaluation.
// internal/arith is kept apart on purpose: it is the reference
// interpreter's independent statement of the same semantics.

// IsALU reports whether op computes a register value from registers or
// an immediate alone: the R-format arithmetic and the I-format
// arithmetic up to and including lui.
func (op Opcode) IsALU() bool { return op >= OpAdd && op <= OpLui }

// ImmOperand returns the second operand of an I-format ALU instruction:
// the logical operations and sltiu zero-extend the 16-bit immediate,
// everything else sign-extends it.
func ImmOperand(op Opcode, imm int64) uint64 {
	switch op {
	case OpAndi, OpOri, OpXori, OpSltiu:
		return uint64(uint16(imm))
	}
	return uint64(imm)
}

// ALU evaluates ALU opcode op at word width xlen (32 or 64) on the
// register value a and the second operand b (a register value or
// ImmOperand's). The low xlen bits of the result are the value a
// register write stores, and they depend only on the low xlen bits of a
// and b. The bits above are dead: every reader masks them (the core's
// register write, the static analyses' constants). They are returned as
// the 64-bit computation leaves them because the core carries results in
// flight before writing them, and its checkpoints encode those values.
//
// Division by zero yields all ones and remainder by zero the dividend;
// the one overflowing quotient, the most negative value over -1, yields
// the dividend and remainder 0. Shifts use the low log2(xlen) bits of b.
// An opcode for which IsALU is false yields 0.
func ALU(op Opcode, a, b uint64, xlen int) uint64 {
	sx := uint(64-xlen) & 63 // the mask tells the compiler sx < 64
	m := ^uint64(0) >> sx
	sa, sb := int64(a<<sx)>>sx, int64(b<<sx)>>sx
	shift := b & uint64(xlen-1)
	switch op {
	case OpAdd, OpAddi:
		return uint64(sa + sb)
	case OpSub:
		return uint64(sa - sb)
	case OpMul:
		return uint64(sa * sb)
	case OpDiv:
		switch {
		case sb == 0:
			return ^uint64(0)
		case sa == -1<<(xlen-1) && sb == -1:
			return uint64(sa)
		}
		return uint64(sa / sb)
	case OpRem:
		switch {
		case sb == 0:
			return uint64(sa)
		case sa == -1<<(xlen-1) && sb == -1:
			return 0
		}
		return uint64(sa % sb)
	case OpAnd, OpAndi:
		return a & b
	case OpOr, OpOri:
		return a | b
	case OpXor, OpXori:
		return a ^ b
	case OpSll, OpSlli:
		return a << shift
	case OpSrl, OpSrli:
		return (a & m) >> shift
	case OpSra, OpSrai:
		return uint64(sa >> shift)
	case OpSlt, OpSlti:
		if sa < sb {
			return 1
		}
	case OpSltu, OpSltiu:
		if a&m < b&m {
			return 1
		}
	case OpLui:
		return b << 16
	}
	return 0
}
