package binanalysis

import (
	"fmt"

	"sevsim/internal/isa"
)

// Binary invariant checker: structural sanity checks over an assembled
// binary that hold for every program our codegen emits. A violation
// does not make the analysis unsound — it flags a binary that would
// fault, clobber its own stack, or read uninitialized state when run.

// Violation is one invariant violation, anchored at an instruction.
type Violation struct {
	Idx  int    // instruction index
	Kind string // "target-range", "use-before-def", "sp-write", "sp-imbalance", "sp-inconsistent"
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%d] %s: %s", v.Idx, v.Kind, v.Msg)
}

// CheckInvariants runs all checks over an analyzed binary:
//
//  1. target-range: every branch/jal target lies inside the binary.
//  2. use-before-def: no caller-saved register is live at program
//     entry; a live one would be read before anything defines it.
//     Callee-saved registers and sp are exempt — prologues legitimately
//     save callee-saved registers, and sp is initialized by the machine.
//  3. sp-*: the stack pointer is only adjusted by addi sp, sp, imm,
//     its net adjustment is zero at every return, and all paths joining
//     at an instruction agree on the current adjustment. Calls are
//     assumed balanced (checked independently at each callee's returns).
func CheckInvariants(a *Analysis) []Violation {
	var vs []Violation
	g := a.CFG
	n := len(g.Code)

	// 1. Control-transfer targets in range.
	for i, in := range g.Code {
		if in.Op.IsBranch() || in.Op == isa.OpJal {
			if t := branchTarget(i, in); t < 0 || t >= n {
				vs = append(vs, Violation{
					Idx:  i,
					Kind: "target-range",
					Msg:  fmt.Sprintf("%s target %d outside [0,%d)", in.Op.Name(), t, n),
				})
			}
		}
	}

	// 2. Caller-saved registers live at entry.
	for r := uint8(0); r < 32; r++ {
		if a.Live[0].Has(r) && isa.CallerSaved(r) {
			vs = append(vs, Violation{
				Idx:  0,
				Kind: "use-before-def",
				Msg:  fmt.Sprintf("caller-saved %s read before any definition", isa.RegName(r)),
			})
		}
	}

	// 3. Stack-pointer balance, per function. Forward propagation of the
	// net SP adjustment from each function entry; return edges are not
	// followed (each function is checked against its own entry offset)
	// and calls fall through to their return point with the caller's
	// offset intact.
	const unseen = int64(-1) << 62
	off := make([]int64, n)
	for _, entry := range g.FuncEntries {
		for i := range off {
			off[i] = unseen
		}
		queue := []int{entry}
		off[entry] = 0
		reported := map[int]bool{}
		propagate := func(from int, cur int64, to int) {
			if to < 0 || to >= n {
				return
			}
			if off[to] == unseen {
				off[to] = cur
				queue = append(queue, to)
			} else if off[to] != cur && !reported[to] {
				reported[to] = true
				vs = append(vs, Violation{
					Idx:  to,
					Kind: "sp-inconsistent",
					Msg:  fmt.Sprintf("paths join with sp adjustments %d and %d (from %d)", off[to], cur, from),
				})
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			i := queue[qi]
			in := g.Code[i]
			cur := off[i]
			if def(in) == isa.RegSP {
				if in.Op == isa.OpAddi && in.Rs1 == isa.RegSP {
					cur += int64(in.Imm)
				} else {
					vs = append(vs, Violation{
						Idx:  i,
						Kind: "sp-write",
						Msg:  fmt.Sprintf("sp written by %s (only addi sp, sp, imm is balanced)", in.Op.Name()),
					})
					continue // offset unknown past this point
				}
			}
			switch {
			case in.Op.IsBranch():
				propagate(i, cur, i+1)
				propagate(i, cur, branchTarget(i, in))
			case isCall(in):
				propagate(i, cur, i+1) // callee assumed balanced
			case in.Op == isa.OpJal: // non-call direct jump
				propagate(i, cur, branchTarget(i, in))
			case isReturn(in):
				if cur != 0 {
					vs = append(vs, Violation{
						Idx:  i,
						Kind: "sp-imbalance",
						Msg:  fmt.Sprintf("return with net sp adjustment %d", cur),
					})
				}
			case in.Op == isa.OpJalr, in.Op == isa.OpHalt:
				// indirect jump with unknown target, or terminal: stop
			default:
				propagate(i, cur, i+1)
			}
		}
	}
	return vs
}
