package machine

import (
	"encoding/binary"

	"sevsim/internal/cpu"
	"sevsim/internal/isa"
	"sevsim/internal/mem"
	"sevsim/internal/simerr"
)

// Memory layout shared by every program.
const (
	CodeBase   = 0x0000_1000
	GlobalBase = 0x0010_0000
	StackTop   = 0x00f0_0000
	StackSize  = 0x0004_0000 // 256 KiB
)

// Program is a linked executable image.
type Program struct {
	Name       string
	Code       []uint32
	Entry      uint64
	GlobalSize uint64 // zero-initialized global segment at GlobalBase
}

// Outcome classifies how a simulation ended. The values mirror the
// paper's fault-effect classes; Masked vs SDC is decided later by the
// injector via output comparison (a completed run reports OutcomeOK).
type Outcome int

const (
	OutcomeOK      Outcome = iota // program committed HALT
	OutcomeCrash                  // precise exception / memory fault
	OutcomeTimeout                // exceeded the cycle budget
	OutcomeAssert                 // simulator invariant violated
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeCrash:
		return "crash"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeAssert:
		return "assert"
	}
	return "?"
}

// Result is the outcome of one simulation.
type Result struct {
	Outcome Outcome
	Reason  string // crash or assert detail
	Cycles  uint64
	Output  []uint64
	Stats   cpu.Stats
	L1I     mem.CacheStats
	L1D     mem.CacheStats
	L2      mem.CacheStats
	// Unexpected is set when the assert came from a recovered non-simerr
	// panic: it indicates a simulator bug rather than a modelled assert
	// and is tracked separately by the campaign driver.
	Unexpected bool
}

// Machine is one assembled system instance. A run leaves it wherever the
// run ended; Restore rewinds it to any snapshot of an identically built
// machine, which is how the injector recycles one scratch machine across
// thousands of runs. Without a snapshot to restore, build one per
// simulation.
type Machine struct {
	Cfg  Config //snapshot:skip immutable configuration; a Snap restores only into an identically configured machine
	Mem  *mem.Memory
	L1I  *mem.Cache
	L1D  *mem.Cache
	L2   *mem.Cache
	Core *cpu.Core
}

// New builds a machine and loads the program.
func New(cfg Config, prog *Program) *Machine {
	m := mem.NewMemory(cfg.MemLatency)
	codeSize := uint64(len(prog.Code)) * 4
	m.Map(mem.Region{Name: "code", Base: CodeBase, Size: pageAlign(codeSize), Perm: mem.PermR | mem.PermX})
	globalSize := prog.GlobalSize
	if globalSize == 0 {
		globalSize = mem.PageSize
	}
	m.Map(mem.Region{Name: "globals", Base: GlobalBase, Size: pageAlign(globalSize), Perm: mem.PermR | mem.PermW})
	m.Map(mem.Region{Name: "stack", Base: StackTop - StackSize, Size: StackSize, Perm: mem.PermR | mem.PermW})

	image := make([]byte, codeSize)
	for i, w := range prog.Code {
		binary.LittleEndian.PutUint32(image[i*4:], w)
	}
	m.LoadImage(CodeBase, image)

	l2 := mem.NewCache(cfg.L2, m)
	l1i := mem.NewCache(cfg.L1I, l2)
	l1d := mem.NewCache(cfg.L1D, l2)
	core := cpu.NewCore(cfg.CPU, m, l1i, l1d, prog.Entry)
	core.SetReg(isa.RegSP, StackTop)
	return &Machine{Cfg: cfg, Mem: m, L1I: l1i, L1D: l1d, L2: l2, Core: core}
}

func pageAlign(n uint64) uint64 {
	return (n + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
}

// Hook is a scheduled callback into a running machine, used by the fault
// injector to flip a bit at a chosen cycle.
type Hook struct {
	At uint64
	Fn func(*Machine)
}

// Watch is a scheduled state probe: at the start of cycle At (after any
// Hook scheduled for the same cycle, so a probe at the injection cycle
// observes post-flip state) Fn inspects the machine; returning true
// stops the run immediately. The fault injector uses watches to detect
// early convergence back to golden state.
type Watch struct {
	At uint64
	Fn func(*Machine) bool
}

// Run simulates until HALT, a crash, an assert, or the cycle budget is
// exhausted. Hooks fire at the start of their scheduled cycle.
func (m *Machine) Run(maxCycles uint64, hooks ...Hook) Result {
	res, _ := m.RunWatched(maxCycles, nil, hooks...)
	return res
}

// RunWatched is Run plus a sorted list of state watches. When a watch
// fires (its Fn returns true) the run stops at that cycle and stopped
// is true; the caller decides what the truncated run means. Watches
// scheduled before the machine's current cycle (possible after a
// checkpoint restore) are skipped, and a watch never observes the
// machine mid-cycle: both hooks and watches run only at cycle
// boundaries, hooks first.
func (m *Machine) RunWatched(maxCycles uint64, watches []Watch, hooks ...Hook) (res Result, stopped bool) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(*simerr.Assert); ok {
				res = m.result(OutcomeAssert, a.Reason)
				return
			}
			// A non-simerr panic is a simulator bug surfaced by an
			// injected fault reaching an unvalidated path. Classify it
			// as an assert (that is what gem5 would do) but mark it.
			res = m.result(OutcomeAssert, "unexpected panic")
			res.Unexpected = true
		}
	}()
	next, nextW := 0, 0
	for m.Core.Cycle() < maxCycles {
		cyc := m.Core.Cycle()
		for next < len(hooks) && hooks[next].At <= cyc {
			hooks[next].Fn(m)
			next++
		}
		for nextW < len(watches) && watches[nextW].At <= cyc {
			if watches[nextW].At == cyc && watches[nextW].Fn(m) {
				return m.result(OutcomeOK, "state converged"), true
			}
			nextW++
		}
		if !m.Core.Step() {
			break
		}
	}
	if m.Core.Halted() {
		return m.result(OutcomeOK, ""), false
	}
	if c := m.Core.Crash(); c != nil {
		return m.result(OutcomeCrash, c.Reason), false
	}
	return m.result(OutcomeTimeout, "cycle budget exhausted"), false
}

func (m *Machine) result(o Outcome, reason string) Result {
	return Result{
		Outcome: o,
		Reason:  reason,
		Cycles:  m.Core.Cycle(),
		Output:  m.Core.Output(),
		Stats:   m.Core.Stats,
		L1I:     m.L1I.Stats,
		L1D:     m.L1D.Stats,
		L2:      m.L2.Stats,
	}
}
