package binanalysis

import (
	"unsafe"

	"sevsim/internal/isa"
)

// Analysis bundles every static result for one binary.
type Analysis struct {
	CFG     *CFG
	LiveIn  []RegSet // per-instruction live-in (registers read before redefinition on some path)
	LiveOut []RegSet // per-instruction live-out
}

// Analyze reconstructs the CFG of an assembled binary and runs the
// liveness fixpoint over it.
func Analyze(code []isa.Instr) (*Analysis, error) {
	g, err := BuildCFG(code)
	if err != nil {
		return nil, err
	}
	liveIn, liveOut := liveness(g)
	return &Analysis{CFG: g, LiveIn: liveIn, LiveOut: liveOut}, nil
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
// code and the per-instruction sets. Block lists are left out, and so
// is any BitAnalysis built on it: its holder counts that.
func (a *Analysis) ResidentBytes() int {
	return len(a.CFG.Code) * (int(unsafe.Sizeof(isa.Instr{})) + 8 + 2*int(unsafe.Sizeof(RegSet(0))))
}

// DeadOut returns the registers provably dead immediately after
// instruction i, restricted to the machine's nregs architectural
// registers. Register 0 is never reported dead: the zero register's
// physical mapping is permanent and architecturally read-as-zero, so
// its bits are handled by the injector, not the pruner.
func (a *Analysis) DeadOut(i, nregs int) RegSet {
	dead := ^a.LiveOut[i]
	if nregs < 32 {
		dead &= (1 << nregs) - 1
	}
	return dead.Without(isa.RegZero)
}

// EntryDead mirrors DeadOut for the moment before the first
// instruction commits: registers whose initial machine state is
// provably never read.
func (a *Analysis) EntryDead(nregs int) RegSet {
	dead := ^a.LiveIn[0]
	if nregs < 32 {
		dead &= (1 << nregs) - 1
	}
	return dead.Without(isa.RegZero)
}
