package compiler

import (
	"fmt"
	"strings"

	"sevsim/internal/machine"
)

// OptLevel selects the optimization pipeline, mirroring GCC's -O flags.
type OptLevel int

const (
	O0 OptLevel = iota
	O1
	O2
	O3
)

// Levels lists all optimization levels in presentation order.
var Levels = []OptLevel{O0, O1, O2, O3}

func (o OptLevel) String() string { return fmt.Sprintf("O%d", int(o)) }

// ParseLevel resolves a level's name: "O0".."O3", "o0".."o3" or "0".."3".
func ParseLevel(name string) (OptLevel, error) {
	for _, l := range Levels {
		if s := l.String(); name == s || name == strings.ToLower(s) || name == s[1:] {
			return l, nil
		}
	}
	return O0, fmt.Errorf("unknown optimization level %q (use O0..O3)", name)
}

// Compile parses, checks, optimizes, and assembles MiniC source into a
// loadable program for the given target: the level's PassSet.
func Compile(src, name string, level OptLevel, tgt Target) (*machine.Program, error) {
	return CompileWithPasses(src, name, LevelPasses(level, tgt), tgt)
}

// TargetFor derives the compiler backend target from a machine config.
func TargetFor(cfg machine.Config) Target {
	return Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs}
}
