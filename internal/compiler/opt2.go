package compiler

import (
	"fmt"
	"sort"

	"sevsim/internal/lang"
)

// The O2 pass set: loop-invariant code motion, strength reduction,
// address-offset folding, cross-jumping, and list instruction
// scheduling.

// AddrFold folds constant address arithmetic into load/store offsets:
// a load from (x + c) becomes a load from x with offset c.
func AddrFold(f *Func) bool {
	changed := false
	defs := DefCounts(f)
	consts := ConstDefs(f)
	// Map single-def adds of (value, const).
	type baseOff struct {
		base Value
		off  int64
	}
	adds := map[Value]baseOff{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != IRBin || in.Kind != lang.OpAdd || defs[in.Dst] != 1 {
				continue
			}
			if c, ok := consts[in.B]; ok {
				adds[in.Dst] = baseOff{in.A, c.Const}
			} else if c, ok := consts[in.A]; ok {
				adds[in.Dst] = baseOff{in.B, c.Const}
			}
		}
	}
	if len(adds) == 0 {
		return false
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != IRLoad && in.Op != IRStore {
				continue
			}
			if bo, ok := adds[in.A]; ok && fitsImm16(in.Off+bo.off) && defs[bo.base] == 1 {
				in.A = bo.base
				in.Off += bo.off
				changed = true
			}
		}
	}
	return changed
}

// LICM hoists loop-invariant pure computations (and loads out of
// write-free loops) into a preheader. Only function-wide single-def
// temporaries are hoisted, which is always safe in the mutable-register
// TAC: their value cannot differ between iterations.
func LICM(f *Func, hoistCap int) bool {
	changed := false
	loops := NaturalLoops(f)
	if len(loops) == 0 {
		return false
	}
	defs := DefCounts(f)
	for _, lp := range loops {
		changed = hoistLoop(f, lp, defs, hoistCap) || changed
	}
	if changed {
		RemoveUnreachable(f)
	}
	return changed
}

func hoistLoop(f *Func, lp *Loop, defs []int, hoistCap int) bool {
	// Deterministic block order: map iteration order would make the
	// hoist order (and hence generated code) vary run to run.
	blocks := make([]*Block, 0, len(lp.Blocks))
	for b := range lp.Blocks { //lint:ordered collected into a slice and sorted by block ID on the next lines
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].ID < blocks[j].ID })
	// Values defined anywhere inside the loop.
	definedIn := map[Value]bool{}
	memWrite := false
	for _, b := range blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != NoValue {
				definedIn[d] = true
			}
			if in.Op == IRStore || in.Op == IRCall {
				memWrite = true
			}
		}
	}
	// Collect hoistable instructions to a fixed point (chains of
	// invariant temps).
	hoisted := map[Value]bool{}
	var moves []Instr
	var buf []Value
	for again := true; again; {
		again = false
		for _, b := range blocks {
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				in := b.Instrs[i]
				ok := false
				switch {
				case in.Pure() && in.Dst != NoValue && defs[in.Dst] == 1:
					ok = true
				case in.Op == IRLoad && !memWrite && defs[in.Dst] == 1:
					ok = true
				}
				if ok && len(moves) >= hoistCap {
					ok = false
				}
				if ok {
					buf = in.Uses(buf[:0])
					for _, u := range buf {
						if definedIn[u] && !hoisted[u] {
							ok = false
							break
						}
					}
				}
				if ok {
					hoisted[in.Dst] = true
					moves = append(moves, in)
					again = true
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
	}
	if len(moves) == 0 {
		return false
	}
	pre := makePreheader(f, lp)
	// Insert before the preheader's terminator.
	term := pre.Instrs[len(pre.Instrs)-1]
	pre.Instrs = append(pre.Instrs[:len(pre.Instrs)-1], moves...)
	pre.Instrs = append(pre.Instrs, term)
	return true
}

// makePreheader ensures the loop header has a unique out-of-loop
// predecessor ending in an unconditional branch, creating one if needed.
func makePreheader(f *Func, lp *Loop) *Block {
	ComputePreds(f)
	var outside []*Block
	for _, p := range lp.Header.Preds {
		if !lp.Blocks[p] {
			outside = append(outside, p)
		}
	}
	if len(outside) == 1 {
		p := outside[0]
		if n := len(p.Instrs); n > 0 && p.Instrs[n-1].Op == IRBr {
			return p
		}
	}
	pre := f.NewBlock()
	pre.Instrs = []Instr{{Op: IRBr, Targets: [2]*Block{lp.Header}}}
	for _, p := range outside {
		t := &p.Instrs[len(p.Instrs)-1]
		for k := range t.Targets {
			if t.Targets[k] == lp.Header {
				t.Targets[k] = pre
			}
		}
	}
	if f.Entry == lp.Header {
		f.Entry = pre
	}
	ComputePreds(f)
	return pre
}

// StrengthReduce rewrites multiplications and divisions by suitable
// constants into shift/add sequences.
func StrengthReduce(f *Func, xlen int) bool {
	changed := false
	consts := ConstDefs(f)
	isPow2 := func(c int64) (int64, bool) {
		if c > 0 && c&(c-1) == 0 {
			k := int64(0)
			for 1<<k < c {
				k++
			}
			return k, true
		}
		return 0, false
	}
	for _, b := range f.Blocks {
		var out []Instr
		rewrote := false
		newConst := func(c int64) Value {
			v := f.NewValue()
			out = append(out, Instr{Op: IRConst, Dst: v, Const: c})
			return v
		}
		newBin := func(kind lang.BinOp, a, bb Value) Value {
			v := f.NewValue()
			out = append(out, Instr{Op: IRBin, Kind: kind, Dst: v, A: a, B: bb})
			return v
		}
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == IRBin {
				var x Value = NoValue
				var c int64
				if d, ok := consts[in.B]; ok {
					x, c = in.A, d.Const
				} else if d, ok := consts[in.A]; ok && in.Kind == lang.OpMul {
					x, c = in.B, d.Const
				}
				if x != NoValue {
					switch in.Kind {
					case lang.OpMul:
						if k, ok := isPow2(c); ok && k > 0 {
							sh := newConst(k)
							out = append(out, Instr{Op: IRBin, Kind: lang.OpShl, Dst: in.Dst, A: x, B: sh})
							rewrote = true
							continue
						}
						// x*3, x*5, x*9 -> (x<<k) + x
						if c == 3 || c == 5 || c == 9 {
							k := map[int64]int64{3: 1, 5: 2, 9: 3}[c]
							sh := newConst(k)
							t := newBin(lang.OpShl, x, sh)
							out = append(out, Instr{Op: IRBin, Kind: lang.OpAdd, Dst: in.Dst, A: t, B: x})
							rewrote = true
							continue
						}
					case lang.OpDiv:
						if k, ok := isPow2(c); ok && k > 0 && in.B != NoValue && x == in.A {
							// Round-toward-zero signed division:
							// d = (x + ((x >> (xlen-1)) & (c-1))) >> k
							s1 := newConst(int64(xlen - 1))
							t1 := newBin(lang.OpShr, x, s1)
							m := newConst(c - 1)
							t2 := newBin(lang.OpAnd, t1, m)
							t3 := newBin(lang.OpAdd, x, t2)
							sk := newConst(k)
							out = append(out, Instr{Op: IRBin, Kind: lang.OpShr, Dst: in.Dst, A: t3, B: sk})
							rewrote = true
							continue
						}
					}
				}
			}
			out = append(out, in)
		}
		if rewrote {
			b.Instrs = out
			changed = true
		}
	}
	return changed
}

// CrossJump merges blocks with identical contents and identical
// successors, the classic tail-merging optimization GCC performs at O2.
func CrossJump(f *Func) bool {
	changed := false
	for {
		byKey := map[string]*Block{}
		replaced := map[*Block]*Block{}
		for _, b := range f.Blocks {
			key := blockKey(b)
			if key == "" {
				continue
			}
			if canon, ok := byKey[key]; ok && canon != b {
				replaced[b] = canon
			} else {
				byKey[key] = b
			}
		}
		if len(replaced) == 0 {
			return changed
		}
		for _, b := range f.Blocks {
			if n := len(b.Instrs); n > 0 {
				t := &b.Instrs[n-1]
				for k := range t.Targets {
					if r, ok := replaced[t.Targets[k]]; ok {
						t.Targets[k] = r
					}
				}
			}
		}
		if r, ok := replaced[f.Entry]; ok {
			f.Entry = r
		}
		RemoveUnreachable(f)
		changed = true
	}
}

// blockKey renders a block's contents for structural comparison; blocks
// that branch to themselves are excluded.
func blockKey(b *Block) string {
	key := ""
	for i := range b.Instrs {
		in := &b.Instrs[i]
		for _, t := range in.Targets {
			if t == b {
				return ""
			}
		}
		key += fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%p,%p;",
			in.Op, in.Kind, in.Dst, in.A, in.B, in.Const, in.Off, in.Sym, in.Callee)
		for _, t := range in.Targets {
			key += fmt.Sprintf("%p,", t)
		}
		for _, a := range in.Args {
			key += fmt.Sprintf("a%d,", a)
		}
	}
	return key
}

// Schedule list-schedules each block to separate loads from their uses
// and shorten critical paths, respecting register and memory
// dependences. The block terminator (and a comparison fused into it)
// stays in place.
func Schedule(f *Func) {
	for _, b := range f.Blocks {
		scheduleBlock(b)
	}
}

func scheduleBlock(b *Block) {
	n := len(b.Instrs)
	if n < 3 {
		return
	}
	end := n - 1 // exclude terminator
	// Keep a compare that feeds the terminating CondBr adjacent to it.
	var pinned []Instr
	term := b.Instrs[n-1]
	if term.Op == IRCondBr && end >= 1 {
		cmp := &b.Instrs[end-1]
		if cmp.Op == IRBin && cmp.Dst == term.A {
			pinned = append(pinned, *cmp)
			end--
		}
	}
	body := b.Instrs[:end]
	if len(body) < 2 {
		return
	}

	// Dependence DAG.
	type node struct {
		succs  []int
		npred  int
		height int
		weight int
	}
	nodes := make([]node, len(body))
	lastDef := map[Value]int{}
	lastUses := map[Value][]int{}
	lastMemWrite := -1
	var lastMemReads []int
	lastOut := -1
	addEdge := func(from, to int) {
		if from >= 0 && from != to {
			nodes[from].succs = append(nodes[from].succs, to)
			nodes[to].npred++
		}
	}
	var buf []Value
	for i := range body {
		in := &body[i]
		nodes[i].weight = 1
		if in.Op == IRLoad {
			nodes[i].weight = 3
		}
		buf = in.Uses(buf[:0])
		for _, u := range buf {
			if d, ok := lastDef[u]; ok {
				addEdge(d, i) // RAW
			}
			lastUses[u] = append(lastUses[u], i)
		}
		if dd := in.Def(); dd != NoValue {
			if d, ok := lastDef[dd]; ok {
				addEdge(d, i) // WAW
			}
			for _, u := range lastUses[dd] {
				addEdge(u, i) // WAR
			}
			lastDef[dd] = i
			lastUses[dd] = nil
		}
		switch in.Op {
		case IRLoad:
			addEdge(lastMemWrite, i)
			lastMemReads = append(lastMemReads, i)
		case IRStore:
			addEdge(lastMemWrite, i)
			for _, r := range lastMemReads {
				addEdge(r, i)
			}
			lastMemWrite = i
			lastMemReads = nil
		case IRCall:
			addEdge(lastMemWrite, i)
			for _, r := range lastMemReads {
				addEdge(r, i)
			}
			addEdge(lastOut, i)
			lastMemWrite = i
			lastMemReads = nil
			lastOut = i
		case IROut:
			addEdge(lastOut, i)
			addEdge(lastMemWrite, i) // calls emit output too
			lastOut = i
		}
	}
	// Heights by reverse scan (DAG edges always go forward).
	for i := len(body) - 1; i >= 0; i-- {
		h := 0
		for _, s := range nodes[i].succs {
			if nodes[s].height > h {
				h = nodes[s].height
			}
		}
		nodes[i].height = h + nodes[i].weight
	}
	// List scheduling: repeatedly pick the ready node with max height.
	ready := []int{}
	npred := make([]int, len(body))
	for i := range nodes {
		npred[i] = nodes[i].npred
		if npred[i] == 0 {
			ready = append(ready, i)
		}
	}
	sched := make([]Instr, 0, len(body))
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool {
			if nodes[ready[a]].height != nodes[ready[b]].height {
				return nodes[ready[a]].height > nodes[ready[b]].height
			}
			return ready[a] < ready[b]
		})
		pick := ready[0]
		ready = ready[1:]
		sched = append(sched, body[pick])
		for _, s := range nodes[pick].succs {
			npred[s]--
			if npred[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(sched) != len(body) {
		return // cycle would indicate a bug; keep original order
	}
	out := append(sched, pinned...)
	out = append(out, term)
	copy(b.Instrs, out)
}
