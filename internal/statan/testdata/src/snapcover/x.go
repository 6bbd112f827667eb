// Package snapcover is a sevlint fixture for the snapshotcover pass:
// a struct with a Snapshot/Restore pair whose fields exercise every
// diagnostic (missing from one or both methods, clean annotation,
// stale annotation, annotation without a reason).
package snapcover

type Machine struct {
	a   int
	b   int // read by Snapshot, not written by Restore: flagged
	c   int // in neither: flagged
	cfg int //snapshot:skip fixture configuration: both methods read it, neither writes it
	d   int //snapshot:skip stale: both methods copy it
	e   int //snapshot:skip
	gen int //snapshot:skip bookkeeping both methods maintain: Snapshot writes it, so it is not captured state
}

type State struct {
	A, B, D int
}

func (m *Machine) Snapshot() *State {
	m.gen += m.cfg
	return &State{A: m.a, B: m.b, D: m.d}
}

func (m *Machine) Restore(s *State) {
	m.a = s.A
	m.d = s.D
	m.gen = m.cfg
}

// Flat exercises the //snapshot:flat view rules over an embedded
// struct-of-arrays slab: a clean view riding a covered backing, a view
// whose backing Restore drops, a view naming a nonexistent backing,
// and a view naming no backing at all.
type slab struct {
	u64     []uint64
	u16     []uint16 // read by Snapshot, not written by Restore: flagged
	good    []uint64 //snapshot:flat u64
	dropped []uint16 //snapshot:flat u16  rides a half-copied backing: flagged
	orphan  []uint64 //snapshot:flat nosuch
	unnamed []uint64 //snapshot:flat
}

type Flat struct {
	slab
	scalar int
}

type FlatState struct {
	U64    []uint64
	U16    []uint16
	Scalar int
}

func (f *Flat) Snapshot() *FlatState {
	return &FlatState{U64: f.u64, U16: f.u16, Scalar: f.scalar}
}

func (f *Flat) Restore(s *FlatState) {
	f.u64 = append(f.u64[:0], s.U64...)
	f.scalar = s.Scalar
}
