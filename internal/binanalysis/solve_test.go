package binanalysis

// Reference fixpoints for the worklist solver: a round-robin solver
// recomputes every block in index order until a whole round changes
// nothing. It shares only the per-block transfer with the worklist
// (the backward exit-and-step walk; the forward known-bits block
// transfer and join), so a wrong seed, pop order or predecessor list
// shows as a block whose state differs.

import "fmt"

// roundRobin returns each block's entry state at the fixpoint of p.
func roundRobin[S comparable](p backward[S]) []S {
	in := make([]S, len(p.g.Blocks))
	for bi := range in {
		in[bi] = p.init
	}
	cur := new(S)
	for changed := true; changed; {
		changed = false
		for bi := range in {
			if p.walk(bi, in, cur, nil); *cur != in[bi] {
				in[bi], changed = *cur, true
			}
		}
	}
	return in
}

// roundRobinKnown returns each block's known-bits entry state at the
// fixpoint, pulling every reached block's state from its reached
// predecessors' exit states; unreached blocks report top.
func roundRobinKnown(g *CFG, xlen int) []kbState {
	top := kbTopState(xlenMask(xlen))
	nb := len(g.Blocks)
	in, out := make([]kbState, nb), make([]kbState, nb)
	for bi := range in {
		in[bi] = top
	}
	for _, b := range g.Blocks {
		if b.Unknown {
			return in
		}
	}
	entry := g.BlockOf[0]
	reached := make([]bool, nb)
	for changed := true; changed; {
		changed = false
		for bi, b := range g.Blocks {
			st, ok := top, bi == entry
			for _, q := range b.Preds {
				switch {
				case !reached[q]:
				case !ok:
					st, ok = out[q], true
				default:
					for r := range st {
						st[r] = kbJoin(st[r], out[q][r])
					}
				}
			}
			if !ok {
				continue
			}
			in[bi] = st
			for i := b.Start; i < b.End; i++ {
				kbApply(&st, i, g.Code[i], xlen)
			}
			if !reached[bi] || st != out[bi] {
				reached[bi], out[bi], changed = true, st, true
			}
		}
	}
	return in
}

// SolverMismatches solves every fixpoint behind Analyze and Bits(xlen)
// for a's binary with the worklist and with the round-robin reference,
// and names each block whose states differ: register liveness, known
// bits, bit liveness and must-DUE, each fed the worklist's results.
func SolverMismatches(a *Analysis, xlen int) []string {
	g := a.CFG
	bad := diffBlocks("liveness", liveness(g).blockIn(), roundRobin(liveness(g)))
	bad = append(bad, diffBlocks("known bits", knownBlockIn(g, xlen), roundRobinKnown(g, xlen))...)
	kz, ko := computeKnownBits(g, xlen)
	p := bitLive(g, kz, ko, xlen)
	bad = append(bad, diffBlocks("bit liveness", p.blockIn(), roundRobin(p))...)
	d := mustDUE(g, kz, ko, p.solve(), xlen)
	return append(bad, diffBlocks("must-DUE", d.blockIn(), roundRobin(d))...)
}

// diffBlocks names each block whose worklist state differs from the
// reference's.
func diffBlocks[S comparable](name string, got, want []S) []string {
	var bad []string
	for bi := range got {
		if got[bi] != want[bi] {
			bad = append(bad, fmt.Sprintf("%s: block %d: worklist %v, round robin %v", name, bi, got[bi], want[bi]))
		}
	}
	return bad
}
