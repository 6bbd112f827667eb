package compiler

import (
	"sevsim/internal/lang"
	"sevsim/internal/machine"
)

// PassSet selects individual optimizations, decoupled from the -O
// levels. The paper's stated future work is to "characterize the impact
// of specific optimizations of each compiler optimization level";
// OptimizeWith makes that experiment expressible: compile with one pass
// removed (or added) and re-measure the vulnerability.
type PassSet struct {
	// Basic is the O1 bundle: constant folding, copy propagation, local
	// CSE, dead-code elimination, CFG cleanup.
	Basic bool
	// UserVarsInMemory pins named variables to stack slots (the O0
	// storage model). Implies worse code regardless of other passes.
	UserVarsInMemory bool

	// O2 features.
	LICM       bool
	Strength   bool
	CrossJump  bool
	Scheduling bool

	// O3 features.
	Inline bool
	Unroll bool
}

// LevelPasses returns an -O level's PassSet for the given target: the
// pipeline Compile runs. List scheduling lengthens live ranges; on the
// 16-register target the spill cost outweighs the latency hiding, so
// the scheduler (like pressure-aware schedulers in real compilers) only
// runs when registers are plentiful.
func LevelPasses(level OptLevel, tgt Target) PassSet {
	ps := PassSet{}
	switch level {
	case O0:
		ps.UserVarsInMemory = true
	case O1:
		ps.Basic = true
	case O2:
		ps.Basic = true
		ps.LICM = true
		ps.Strength = true
		ps.CrossJump = true
		ps.Scheduling = tgt.NumArchRegs >= 32
	case O3:
		ps.Basic = true
		ps.LICM = true
		ps.Strength = true
		ps.CrossJump = true
		ps.Scheduling = tgt.NumArchRegs >= 32
		ps.Inline = true
		ps.Unroll = true
	}
	return ps
}

// Without returns a copy of the set with one named pass disabled. Valid
// names: basic, licm, strength, crossjump, scheduling, inline, unroll.
func (ps PassSet) Without(name string) PassSet {
	switch name {
	case "basic":
		ps.Basic = false
	case "licm":
		ps.LICM = false
	case "strength":
		ps.Strength = false
	case "crossjump":
		ps.CrossJump = false
	case "scheduling":
		ps.Scheduling = false
	case "inline":
		ps.Inline = false
	case "unroll":
		ps.Unroll = false
	}
	return ps
}

// PassNames lists the toggleable optimization names in pipeline order.
func PassNames() []string {
	return []string{"basic", "licm", "strength", "crossjump", "scheduling", "inline", "unroll"}
}

// hoistCapFor bounds loop-invariant hoisting per loop: hoisted
// temporaries live across the whole loop, so unbounded hoisting trades
// recomputation for spills on register-poor targets (a pressure-aware
// LICM, as real compilers implement).
func hoistCapFor(tgt Target) int {
	if tgt.NumArchRegs >= 32 {
		return 14
	}
	return 6
}

// OptimizeWith runs exactly the selected passes on every function of
// the module. The O2 passes iterate to a fixed point (at most four
// rounds), each round re-cleaned; loop unrolling runs after them so
// invariant hoisting does not double up across the unrolled copies.
func OptimizeWith(mod *Module, ps PassSet, tgt Target) {
	if ps.Inline {
		InlineCalls(mod)
	}
	cap := hoistCapFor(tgt)
	for _, f := range mod.Funcs {
		if !ps.Basic {
			RemoveUnreachable(f)
		} else {
			RunO1(f, tgt.XLEN)
		}
		if ps.LICM || ps.Strength || ps.CrossJump {
			for i := 0; i < 4; i++ {
				changed := false
				if ps.LICM {
					changed = AddrFold(f) || changed
					changed = LICM(f, cap) || changed
				}
				if ps.Strength {
					changed = StrengthReduce(f, tgt.XLEN) || changed
				}
				if ps.CrossJump {
					changed = CrossJump(f) || changed
				}
				if ps.Basic {
					RunO1(f, tgt.XLEN)
				} else {
					Cleanup(f)
				}
				if !changed {
					break
				}
			}
		}
		if ps.Unroll {
			UnrollLoops(f)
			if ps.Basic {
				RunO1(f, tgt.XLEN)
			} else {
				Cleanup(f)
			}
		}
		if ps.Scheduling {
			Schedule(f)
		}
	}
}

// CompileWithPasses compiles MiniC with an explicit pass selection.
func CompileWithPasses(src, name string, ps PassSet, tgt Target) (*machine.Program, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	mod, err := Lower(prog, tgt.WordSize())
	if err != nil {
		return nil, err
	}
	OptimizeWith(mod, ps, tgt)
	p, err := Generate(mod, tgt, ps.UserVarsInMemory)
	if err != nil {
		return nil, err
	}
	p.Name = name
	return p, nil
}
