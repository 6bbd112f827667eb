package binanalysis

import (
	"fmt"
	"slices"

	"sevsim/internal/isa"
)

// Block is one basic block: the half-open instruction range
// [Start, End) with its control-flow successors.
type Block struct {
	Start, End int
	Succs      []int // successor block indices, deduplicated, ascending
	Preds      []int // predecessor block indices, ascending

	// Unknown marks a block whose terminator's successors cannot be
	// enumerated statically (an indirect jalr that is not the return
	// idiom). Liveness treats such blocks as exits with every register
	// live, which is the conservative direction for dead-set consumers.
	Unknown bool
	// IsRet marks a block ending in the return idiom jalr zr, imm(ra);
	// its successors are every recorded return point.
	IsRet bool
}

// CFG is a control-flow graph over an assembled instruction sequence.
type CFG struct {
	Code    []isa.Instr
	Blocks  []Block
	BlockOf []int // instruction index -> containing block

	// FuncEntries are the entry points of the call graph: instruction 0
	// plus the target of every direct call (jal with rd=ra), ascending.
	FuncEntries []int
	// RetPoints are the instructions control returns to after a call:
	// the instruction following every direct or indirect call.
	RetPoints []int
}

// terminator kinds, derived from the last instruction of a block.
func isCall(in isa.Instr) bool {
	return (in.Op == isa.OpJal || in.Op == isa.OpJalr) && in.Rd == isa.RegRA
}

func isReturn(in isa.Instr) bool {
	return in.Op == isa.OpJalr && in.Rd == isa.RegZero && in.Rs1 == isa.RegRA
}

// branchTarget returns the absolute instruction index a branch or jal
// at index i transfers to.
func branchTarget(i int, in isa.Instr) int { return i + 1 + int(in.Imm) }

// BuildCFG reconstructs the control-flow graph of code. Leaders are
// instruction 0, every branch/jal target in range, and every
// instruction following a control transfer (branch fall-through, call
// return point, post-jump). Out-of-range targets do not create edges
// (the transfer faults at fetch); they are surfaced by CheckInvariants
// rather than here so a malformed binary can still be analyzed.
func BuildCFG(code []isa.Instr) (*CFG, error) {
	n := len(code)
	if n == 0 {
		return nil, fmt.Errorf("binanalysis: empty program")
	}

	leader := make([]bool, n)
	leader[0] = true
	mark := func(i int) {
		if i >= 0 && i < n {
			leader[i] = true
		}
	}
	for i, in := range code {
		switch {
		case in.Op.IsBranch():
			mark(branchTarget(i, in))
			mark(i + 1)
		case in.Op == isa.OpJal:
			mark(branchTarget(i, in))
			mark(i + 1)
		case in.Op == isa.OpJalr, in.Op == isa.OpHalt:
			mark(i + 1)
		}
	}

	g := &CFG{Code: code, BlockOf: make([]int, n)}
	for i := 0; i < n; i++ {
		if leader[i] {
			g.Blocks = append(g.Blocks, Block{Start: i})
		}
		g.BlockOf[i] = len(g.Blocks) - 1
	}
	for bi := range g.Blocks {
		if bi+1 < len(g.Blocks) {
			g.Blocks[bi].End = g.Blocks[bi+1].Start
		} else {
			g.Blocks[bi].End = n
		}
	}

	// Call graph anchors: function entries and return points.
	entrySet := map[int]bool{0: true}
	for i, in := range code {
		if !isCall(in) {
			continue
		}
		if in.Op == isa.OpJal {
			if t := branchTarget(i, in); t >= 0 && t < n {
				entrySet[t] = true
			}
		}
		if i+1 < n {
			g.RetPoints = append(g.RetPoints, i+1)
		}
	}
	for i := 0; i < n; i++ {
		if entrySet[i] {
			g.FuncEntries = append(g.FuncEntries, i)
		}
	}

	// Successor edges from each block's terminator.
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := code[b.End-1]
		add := func(i int) {
			if i < 0 || i >= n {
				return // faults at fetch: no successor
			}
			t := g.BlockOf[i]
			for _, s := range b.Succs {
				if s == t {
					return
				}
			}
			b.Succs = append(b.Succs, t)
		}
		switch {
		case last.Op.IsBranch():
			add(b.End) // fall-through
			add(branchTarget(b.End-1, last))
		case last.Op == isa.OpJal:
			add(branchTarget(b.End-1, last))
		case isReturn(last):
			b.IsRet = true
			// A return transfers to some caller's return point. Which one
			// is dynamic (the link register), so the static edge set is
			// every return point: an over-approximation that keeps the
			// backward liveness union sound for any actual caller.
			for _, rp := range g.RetPoints {
				add(rp)
			}
		case last.Op == isa.OpJalr:
			// Indirect transfer that is not the return idiom: target
			// statically unknown.
			b.Unknown = true
		case last.Op == isa.OpHalt:
			// Terminal: no successors.
		default:
			add(b.End)
		}
	}
	for bi := range g.Blocks {
		slices.Sort(g.Blocks[bi].Succs)
		for _, s := range g.Blocks[bi].Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, bi)
		}
	}
	return g, nil
}
