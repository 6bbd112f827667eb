package binanalysis

import (
	"unsafe"

	"sevsim/internal/isa"
)

// Analysis bundles every static result for one binary. Its table is
// indexed by program point: point 0 is the state before the first
// instruction commits, point i+1 the state right after instruction i.
type Analysis struct {
	CFG  *CFG
	Live []RegSet // registers some static path from the point reads before redefining them
}

// Analyze reconstructs the CFG of an assembled binary and runs the
// liveness fixpoint over it.
func Analyze(code []isa.Instr) (*Analysis, error) {
	g, err := BuildCFG(code)
	if err != nil {
		return nil, err
	}
	return &Analysis{CFG: g, Live: liveness(g).solve()}, nil
}

// AnalyzeWords decodes an assembled code image and analyzes it; the
// entry point for consumers holding a machine.Program.
func AnalyzeWords(words []uint32) (*Analysis, error) {
	code := make([]isa.Instr, len(words))
	for i, w := range words {
		code[i] = isa.Decode(w)
	}
	return Analyze(code)
}

// ResidentBytes estimates the memory the analysis holds: the decoded
// code, the block index and the per-point live sets. Block lists are
// left out, and so is any BitAnalysis built on it: its holder counts
// that.
func (a *Analysis) ResidentBytes() int {
	return len(a.CFG.Code)*(int(unsafe.Sizeof(isa.Instr{}))+8) + len(a.Live)*int(unsafe.Sizeof(RegSet(0)))
}

// Dead returns the registers provably dead at program point pt,
// restricted to the machine's nregs architectural registers, and
// nothing when pt < 0 (an unanalyzable state). Register 0 is never
// reported dead: the zero register's physical mapping is permanent and
// architecturally read-as-zero, so its bits are handled by the
// injector, not the pruner.
func (a *Analysis) Dead(pt, nregs int) RegSet {
	if pt < 0 {
		return 0
	}
	dead := ^a.Live[pt]
	if nregs < 32 {
		dead &= (1 << nregs) - 1
	}
	return dead.Without(isa.RegZero)
}
