package machine

import (
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/fieldtable"
	"sevsim/internal/isa"
	"sevsim/internal/mem"
)

// lineStates is every line's tag, valid and dirty bit, read without
// touching the cache.
func lineStates(c *mem.Cache) any {
	type line struct {
		tag          uint64
		valid, dirty bool
	}
	var out []line
	for set := 0; set < c.Sets(); set++ {
		for way := 0; way < c.Config().Ways; way++ {
			var l line
			l.tag, l.valid, l.dirty = c.LineState(set, way)
			out = append(out, l)
		}
	}
	return out
}

// firstValid returns the cache's first valid line, or -1.
func firstValid(c *mem.Cache) int {
	ways := c.Config().Ways
	for line := 0; line < c.Sets()*ways; line++ {
		if _, valid, _ := c.LineState(line/ways, line%ways); valid {
			return line
		}
	}
	return -1
}

// flipDirty flips the dirty bit of the cache's first valid line.
func flipDirty(c *mem.Cache) {
	c.FlipTagBit(uint64(firstValid(c)*(c.TagWidth()+2) + c.TagWidth() + 1))
}

// encodedCore is the byte encoding of the core's snapshot: every field
// a checkpoint carries, dead state and Stats included.
func encodedCore(m *Machine) any {
	s := m.Core.Snapshot()
	defer s.Release()
	var w binio.Writer
	s.EncodeTo(&w)
	return w.Bytes()
}

// TestMachineFieldTable gives every Machine field one row and checks it
// by perturbation (see internal/fieldtable), with Converged as the
// behavioural equality and the Snap encoding as the byte round trip.
// The components' own fields have their tables in internal/cpu and
// internal/mem; here each component is perturbed once, to show that
// Snapshot, Restore, Converged and the encoding all reach it.
func TestMachineFieldTable(t *testing.T) {
	for _, cfg := range Configs() {
		t.Run(cfg.Name, func(t *testing.T) {
			blank := func() *Machine { return New(cfg, prog(snapIns())) }
			// The first cycle at which the data cache holds a line; the
			// instruction cache and the L2 hold one by then.
			m := blank()
			for firstValid(m.L1D) < 0 {
				if !m.Core.Step() {
					t.Fatal("the run ended before the data cache held a line")
				}
			}
			at := m.Core.Cycle()
			const component = "checkpointed through its own Snapshot and Restore, and compared by its StateEquals"
			fieldtable.Check(t, fieldtable.Subject[Machine, *Snap]{
				Source: func() *Machine {
					m := blank()
					for m.Core.Cycle() < at {
						m.Core.Step()
					}
					return m
				},
				Blank:    blank,
				Snapshot: (*Machine).Snapshot,
				Restore:  (*Machine).Restore,
				Encode: func(s *Snap) (*Snap, error) {
					var w binio.Writer
					s.EncodeTo(&w, &mem.Encoder{})
					return DecodeSnap(binio.NewReader(w.Bytes()), cfg, &mem.Decoder{})
				},
				Equal:       (*Snap).Equal,
				StateEquals: (*Machine).Converged,
			}, []fieldtable.Row[Machine]{
				{Field: "Cfg", Class: fieldtable.Fixed, Reason: "immutable configuration; a Snap restores only into an identically configured machine"},
				{Field: "Mem", Class: fieldtable.State, Reason: component,
					Perturb: func(m *Machine) {
						line := make([]byte, 8)
						m.Mem.ReadLine(GlobalBase, line)
						line[0] ^= 1
						m.Mem.WriteLine(GlobalBase, line)
					},
					View: func(m *Machine) any { return m.Mem.ReadWord(GlobalBase, 8) }},
				{Field: "L1I", Class: fieldtable.State, Reason: component,
					Perturb: func(m *Machine) { flipDirty(m.L1I) }, View: func(m *Machine) any { return lineStates(m.L1I) }},
				{Field: "L1D", Class: fieldtable.State, Reason: component,
					Perturb: func(m *Machine) { flipDirty(m.L1D) }, View: func(m *Machine) any { return lineStates(m.L1D) }},
				{Field: "L2", Class: fieldtable.State, Reason: component,
					Perturb: func(m *Machine) { flipDirty(m.L2) }, View: func(m *Machine) any { return lineStates(m.L2) }},
				{Field: "Core", Class: fieldtable.State, Reason: component,
					Perturb: func(m *Machine) { m.Core.SetReg(isa.RegA0, 0x1234) },
					View:    encodedCore},
			})
		})
	}
}
