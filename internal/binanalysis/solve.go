package binanalysis

// One worklist and one backward solver serve every fixpoint in the
// package. Register liveness, both bit-liveness passes (bitlive.go) and
// must-DUE (propagate.go) are backward problems given to solve; forward
// known bits (knownbits.go) drains the same worklist.
//
// Register liveness is the first of them. A register is live at a
// point when some static path from that point reads it before any
// redefinition; dead (un-ACE) otherwise. The analysis is a
// may-analysis over the union of static paths, so its dead sets are
// conservative with respect to any dynamic execution — including
// wrong-path (speculative) execution, because every speculatively
// fetched path is also a static path of the binary.

// worklist is a last-in first-out set of block indices: a block already
// queued is not queued again.
type worklist struct {
	stack  []int
	queued []bool
}

func newWorklist(nb int) *worklist {
	return &worklist{stack: make([]int, 0, nb), queued: make([]bool, nb)}
}

func (w *worklist) push(bi int) {
	if !w.queued[bi] {
		w.queued[bi] = true
		w.stack = append(w.stack, bi)
	}
}

// drain visits the most recently queued block until none is queued;
// visit queues whatever its result changes.
func (w *worklist) drain(visit func(bi int)) {
	for len(w.stack) > 0 {
		bi := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		w.queued[bi] = false
		visit(bi)
	}
}

// backward is one backward dataflow problem over a CFG. Every state is
// a value, so the solver compares and copies states with == and =.
type backward[S comparable] struct {
	g *CFG
	// init is every block's entry state before its first visit: the
	// bottom of a may-analysis, the top of a must-analysis.
	init S
	// exit is a block's exit state, met over its successors' entry
	// states in; it also says what an Unknown block or a block without
	// successors exits with.
	exit func(b *Block, in []S) S
	// step turns the state after instruction i into the state before it.
	step func(i int, s *S)
}

// blockIn solves the problem to its fixpoint and returns each block's
// entry state. Every block is seeded, the last first, so unreachable
// code is analyzed too (the invariant checker and sevanalyze's dumps
// cover the whole binary); a block whose entry state changes queues its
// predecessors in ascending order.
func (p backward[S]) blockIn() []S {
	in := make([]S, len(p.g.Blocks))
	w := newWorklist(len(in))
	for bi := len(in) - 1; bi >= 0; bi-- {
		in[bi] = p.init
		w.push(bi)
	}
	cur := new(S)
	w.drain(func(bi int) {
		if p.walk(bi, in, cur, nil); *cur != in[bi] {
			in[bi] = *cur
			for _, q := range p.g.Blocks[bi].Preds {
				w.push(q)
			}
		}
	})
	return in
}

// walk runs block bi backward from its exit state, leaving its entry
// state in cur (one scratch state per solve: step's pointer escapes).
// With pts non-nil it records the state after each instruction i at
// pts[i+1], and the entry state of the block that starts the program at
// pts[0].
func (p backward[S]) walk(bi int, in []S, cur *S, pts []S) {
	b := &p.g.Blocks[bi]
	*cur = p.exit(b, in)
	for i := b.End - 1; i >= b.Start; i-- {
		if pts != nil {
			pts[i+1] = *cur
		}
		p.step(i, cur)
	}
	if pts != nil && b.Start == 0 {
		pts[0] = *cur
	}
}

// solve returns the fixpoint state at every program point: point 0 is
// before the first instruction, point i+1 right after instruction i.
func (p backward[S]) solve() []S {
	in := p.blockIn()
	pts := make([]S, len(p.g.Code)+1)
	cur := new(S)
	for bi := range p.g.Blocks {
		p.walk(bi, in, cur, pts)
	}
	return pts
}

// liveness is register liveness; solved, it gives the registers live
// at every program point.
func liveness(g *CFG) backward[RegSet] {
	return backward[RegSet]{
		g: g,
		exit: func(b *Block, in []RegSet) RegSet {
			if b.Unknown {
				return AllRegs
			}
			var out RegSet
			for _, s := range b.Succs {
				out |= in[s]
			}
			return out
		},
		step: func(i int, s *RegSet) {
			in := g.Code[i]
			if d := def(in); d != 0xff {
				*s = s.Without(d)
			}
			*s |= uses(in)
		},
	}
}
