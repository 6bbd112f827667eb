package faultinj

// Multi-bit upset support, extending the study in the direction of the
// authors' companion work on MBUs (Chatzidimitriou et al., IISWC 2019):
// deep-submicron particle strikes increasingly flip multiple physically
// adjacent cells, and ECC schemes sized for single-bit upsets do not
// correct them.

// Model selects the fault multiplicity of an injection.
type Model int

const (
	// SingleBit is the paper's baseline model.
	SingleBit Model = iota
	// DoubleAdjacent flips two horizontally adjacent bits.
	DoubleAdjacent
	// QuadAdjacent flips four adjacent bits (an aggressive MBU).
	QuadAdjacent
)

func (m Model) String() string {
	switch m {
	case DoubleAdjacent:
		return "double-adjacent"
	case QuadAdjacent:
		return "quad-adjacent"
	}
	return "single-bit"
}

// Width returns the number of bits the model flips.
func (m Model) Width() uint64 {
	switch m {
	case DoubleAdjacent:
		return 2
	case QuadAdjacent:
		return 4
	}
	return 1
}

// Models lists the supported fault models.
func Models() []Model { return []Model{SingleBit, DoubleAdjacent, QuadAdjacent} }

// InjectModel runs one end-to-end injection flipping Width adjacent
// bits starting at inj.Bit (wrapping at the array end), classified
// against the golden run exactly like Inject.
func (e *Experiment) InjectModel(t Target, inj Injection, model Model) InjectResult {
	return e.runInjection(t, inj, model)
}
