package binanalysis_test

// Differential soundness fuzz for the fault-propagation verdicts:
// random straight-line programs with genuine memory traffic (aligned
// loads and stores into the global segment) are run through the full
// traced fault-injection pipeline, and for every sampled injection the
// pruner's three-way static verdict is checked against the simulator's
// classification: a DUE claim must simulate as Crash, a Masked claim
// as Masked, and a dynamically observed SDC must fall inside the
// static SDC-possible set (never on a pruned site). Both
// microarchitectures run, so the verdicts are exercised at XLEN 32 and
// 64 and at both ROB depths.

import (
	"testing"

	"sevsim/internal/binanalysis"
	"sevsim/internal/faultinj"
	"sevsim/internal/isa"
	"sevsim/internal/machine"
)

// fuzzPtr holds the global-segment base for the memory chunks; it sits
// outside fuzzRegs so ALU chunks never clobber it, keeping every
// generated access provably in bounds. fuzzAlias holds the same address,
// loaded back from memory, so the analysis knows none of its bits: an
// access through it has a base whose upper bits are unknown.
const (
	fuzzPtr   = uint8(isa.RegS0 + 1)
	fuzzAlias = uint8(isa.RegS0 + 2)
)

// fuzzGlobals is the byte size of the fuzzed program's global segment;
// generated offsets stay inside it at every access width.
const fuzzGlobals = 64

// buildMemFuzzProgram decodes fuzz bytes like buildFuzzProgram but
// lets each chunk pick a word-aligned store, a load, or an ALU
// instruction, so corrupted values flow through memory before being
// observed. A store is not followed by an out, so a stored value
// reaches the output only if a load reads it back. All addresses are
// fuzzPtr- or fuzzAlias-relative with in-bounds aligned offsets: the
// golden run is guaranteed fault-free, which is exactly the invariant
// the crash-certain masks assume.
func buildMemFuzzProgram(data []byte) []isa.Instr {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var prog []isa.Instr
	for _, r := range fuzzRegs {
		hi := int32(int16(uint16(next()) | uint16(next())<<8))
		lo := int32(uint16(next()) | uint16(next())<<8)
		prog = append(prog,
			isa.I(isa.OpLui, r, 0, hi),
			isa.I(isa.OpOri, r, r, lo))
	}
	prog = append(prog, isa.I(isa.OpLui, fuzzPtr, 0, int32(machine.GlobalBase>>16)),
		isa.Store(isa.OpSw, fuzzPtr, fuzzPtr, fuzzGlobals-4),
		isa.Load(isa.OpLw, fuzzAlias, fuzzPtr, fuzzGlobals-4))
	bases := []uint8{fuzzPtr, fuzzAlias}
	nops := 0
	for len(data) >= 5 && nops < 24 {
		sel := next()
		rd := fuzzRegs[int(next())%len(fuzzRegs)]
		switch sel % 4 {
		case 0: // word store of a pool register
			off := int32(next()%(fuzzGlobals/4)) * 4
			prog = append(prog, isa.Store(isa.OpSw, rd, bases[next()%2], off))
		case 1: // load back into the pool (word or byte, signed or not)
			var op isa.Opcode
			var off int32
			kind := next()
			switch kind % 3 {
			case 0:
				op, off = isa.OpLw, int32(next()%(fuzzGlobals/4))*4
			case 1:
				op, off = isa.OpLb, int32(next()%fuzzGlobals)
			default:
				op, off = isa.OpLbu, int32(next()%fuzzGlobals)
			}
			prog = append(prog, isa.Load(op, rd, bases[kind/3%2], off))
		default: // ALU chunk, as in buildFuzzProgram
			op := fuzzOps[int(next())%len(fuzzOps)]
			rs1 := fuzzRegs[int(next())%len(fuzzRegs)]
			if isImmOp(op) {
				imm := int32(int16(uint16(next()) | uint16(next())<<8))
				prog = append(prog, isa.I(op, rd, rs1, imm))
			} else {
				prog = append(prog, isa.R(op, rd, rs1, fuzzRegs[int(next())%len(fuzzRegs)]))
			}
		}
		if sel%4 != 0 {
			prog = append(prog, isa.Out(rd))
		}
		nops++
	}
	for _, r := range fuzzRegs {
		prog = append(prog, isa.Out(r))
	}
	prog = append(prog, isa.Halt())
	return prog
}

// propagationSeeds is FuzzPropagationVsSimulation's seed corpus.
var propagationSeeds = [][]byte{
	{},
	{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 1, 2, 3, 4, 5},
	{
		0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x80, 0, 0, 0x80, 1, 1, 1, 1,
		0, 0, 4, 0, 0, // sw
		1, 1, 0, 4, 0, // lw
		1, 2, 1, 9, 0, // lb
		2, 3, 1, 2, 0, // alu
	},
	// A word store through fuzzAlias, whose upper bits are unknown, the
	// stored register redefined before any out, and a load of the same
	// word through fuzzPtr: the stored bits reach the output only
	// through memory.
	{
		0, 0, 0x34, 0x12, 0, 0, 0x78, 0x56, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 2, 1, // sw a0, 8(fuzzAlias)
		2, 0, 13, 1, 0, 0, // addi a0, a1, 0
		1, 2, 0, 2, 0, // lw a2, 8(fuzzPtr)
	},
}

// FuzzPropagationVsSimulation cross-checks every static verdict the
// three-way pruner can emit against the concrete simulator on both
// marches.
func FuzzPropagationVsSimulation(f *testing.F) {
	for _, seed := range propagationSeeds {
		f.Add(seed)
	}
	rf, ok := faultinj.TargetByName("RF")
	if !ok {
		f.Fatal("RF target missing")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		words := isa.Assemble(buildMemFuzzProgram(data))
		a, err := binanalysis.AnalyzeWords(words)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		for _, cfg := range machine.Configs() {
			exp, err := faultinj.NewTracedExperiment(cfg, &machine.Program{
				Name: "propfuzz", Code: words, Entry: machine.CodeBase, GlobalSize: fuzzGlobals,
			})
			if err != nil {
				t.Fatalf("%s: experiment: %v", cfg.Name, err)
			}
			pruner, err := binanalysis.NewDUEPruner(a, exp)
			if err != nil {
				t.Fatalf("%s: pruner: %v", cfg.Name, err)
			}
			// Only verdicts are simulated: an SDC-possible site admits any
			// outcome, so "no observed SDC outside the static SDC-possible
			// set" is the two arms below never simulating as SDC. That
			// keeps a sample large enough to land in a short-lived window.
			injections, err := exp.Sample(rf, 2000, 7)
			if err != nil {
				t.Fatalf("%s: sample: %v", cfg.Name, err)
			}
			for _, inj := range injections {
				kind, reason := pruner.PrunableKind(rf, inj)
				if kind == faultinj.PruneNone {
					continue
				}
				r := exp.Inject(rf, inj)
				if kind == faultinj.PruneDUE && r.Outcome != faultinj.Crash {
					t.Errorf("%s: cycle %d bit %d claimed crash-certain (%s) but simulated as %s (%s)",
						cfg.Name, inj.Cycle, inj.Bit, reason, r.Outcome, r.Reason)
				}
				if kind != faultinj.PruneDUE && r.Outcome != faultinj.Masked {
					t.Errorf("%s: cycle %d bit %d claimed masked at %s granularity (%s) but simulated as %s (%s)",
						cfg.Name, inj.Cycle, inj.Bit, kind, reason, r.Outcome, r.Reason)
				}
			}
			exp.Close()
		}
	})
}
