package binanalysis

// The crash verdict's reorder-window test against the per-register
// reader lists it replaced: the lists indexed every register read of
// the golden run, the pruner now holds each register's last reader and
// scans the window itself. The reference below rebuilds the lists from
// the trace and asks them the question the way the pruner used to.

import (
	"fmt"
	"sort"
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/cpu"
	"sevsim/internal/faultinj"
	"sevsim/internal/isa"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// refReaders lists, ascending and per register, the trace positions
// whose instruction reads it; a PC outside the code image reads every
// register but r0.
func refReaders(p *DUEPruner) [32][]int32 {
	var rs [32][]int32
	for k := 0; k < p.events.Len(); k++ {
		idx := p.idxOf(p.events.At(k).PC)
		if idx < 0 {
			for r := 1; r < 32; r++ {
				rs[r] = append(rs[r], int32(k))
			}
			continue
		}
		s1, s2 := p.a.CFG.Code[idx].SourceRegs()
		if s1 < 32 {
			rs[s1] = append(rs[s1], int32(k))
		}
		if s2 < 32 && s2 != s1 {
			rs[s2] = append(rs[s2], int32(k))
		}
	}
	return rs
}

// refClearFrom is the window criterion on a reader list, given the
// index i in rs of the first reader at or past state k.
func refClearFrom(rs []int32, i, k, robSize int) bool {
	return i < len(rs) && int(rs[i])-k >= robSize
}

// refClear answers windowClear(k, a) from the reader lists.
func refClear(readers *[32][]int32, k int, a uint8, robSize int) bool {
	rs := readers[a]
	return refClearFrom(rs, sort.Search(len(rs), func(i int) bool { return int(rs[i]) >= k }), k, robSize)
}

// refWalk visits the constant-state cycle intervals as walkIntervals
// does, finding each interval's end event by event and leaving the
// program point to pointAfter.
func refWalk(p *DUEPruner, f func(k int, cycles uint64)) {
	g := p.goldenCycles
	if g == 0 {
		return
	}
	last := g - 1
	c0 := uint64(0)
	k := 0
	n := p.events.Len()
	for k < n {
		cy := p.events.At(k).Cycle
		j := k
		for j < n && p.events.At(j).Cycle == cy {
			j++
		}
		hi := cy
		if hi > last {
			hi = last
		}
		if c0 <= hi {
			f(k, hi-c0+1)
		}
		c0 = cy + 1
		k = j
	}
	if c0 <= last {
		f(n, g-c0)
	}
}

// refBound is Bound walking one forward cursor per register over the
// reader lists.
func refBound(p *DUEPruner, readers *[32][]int32) RFBound {
	b := RFBound{SpaceBits: p.goldenCycles * uint64(p.numPhys) * uint64(p.xlen)}
	if b.SpaceBits == 0 {
		return b
	}
	table := make([]pointBits, len(p.a.CFG.Code)+2)
	var first [32]int
	var reg, bit, due uint64
	refWalk(p, func(k int, cycles uint64) {
		pt := p.pointAfter(k)
		pb := &table[pt+2]
		if !pb.known {
			*pb = p.bitsAt(pt)
		}
		reg += pb.reg * cycles
		bit += pb.bit * cycles
		for _, d := range pb.due {
			rs, i := readers[d.a], first[d.a]
			for i < len(rs) && int(rs[i]) < k {
				i++
			}
			first[d.a] = i
			if refClearFrom(rs, i, k, p.robSize) {
				due += uint64(d.n) * cycles
			}
		}
	})
	b.PrunableBits = bit
	b.MaskedLB = float64(bit) / float64(b.SpaceBits)
	b.AVFUpperBound = 1 - b.MaskedLB
	b.RegPrunableBits = reg
	b.RegMaskedLB = float64(reg) / float64(b.SpaceBits)
	b.DuePrunableBits = due
	b.DueLB = float64(due) / float64(b.SpaceBits)
	b.SDCUpperBound = 1 - b.MaskedLB - b.DueLB
	return b
}

// windowCases is what checkWindow saw: states whose register is never
// read again, and states whose first reader lies exactly ROBSize (clear)
// or ROBSize-1 (not clear) commits away.
type windowCases struct{ neverAgain, atROB, belowROB int }

// checkWindow compares windowClear with the reader lists at every state
// and register, and Bound with refBound field by field.
func checkWindow(t *testing.T, p *DUEPruner) windowCases {
	t.Helper()
	readers := refReaders(p)
	var seen windowCases
	for k := 0; k <= p.events.Len(); k++ {
		for a := uint8(0); a < 32; a++ {
			want := refClear(&readers, k, a, p.robSize)
			if got := p.windowClear(k, a); got != want {
				t.Fatalf("windowClear(%d, r%d) = %v, reader lists say %v (ROB %d, last read %d)",
					k, a, got, want, p.robSize, p.lastRead[a])
			}
			rs := readers[a]
			i := sort.Search(len(rs), func(i int) bool { return int(rs[i]) >= k })
			switch {
			case i == len(rs):
				if i > 0 {
					seen.neverAgain++
				}
			case int(rs[i])-k == p.robSize:
				seen.atROB++
			case int(rs[i])-k == p.robSize-1:
				seen.belowROB++
			}
		}
	}
	if got, want := p.Bound(), refBound(p, &readers); got != want {
		t.Fatalf("Bound differs from the reader-list walk:\n got %+v\nwant %+v", got, want)
	}
	return seen
}

// TestWindowMatchesReaderLists: on every bundled unit at its test size
// and on both microarchitectures, the window test answers as the reader
// lists did at every trace position and register, and the static bound
// is the reader-list walk's in every field. The sample must include a
// register never read again and first readers exactly ROBSize and
// ROBSize-1 commits away, the cases either side of the window bound.
func TestWindowMatchesReaderLists(t *testing.T) {
	if testing.Short() {
		t.Skip("traces all 64 bundled units; skipped in -short")
	}
	var total windowCases
	t.Run("units", func(t *testing.T) {
		for _, cfg := range machine.Configs() {
			for _, bench := range workloads.All() {
				for _, level := range compiler.Levels {
					var seen windowCases
					t.Run(fmt.Sprintf("%s-%s-%s", cfg.Name, bench.Name, level), func(t *testing.T) {
						t.Parallel()
						prog, err := compiler.Compile(bench.Source(bench.TestSize), bench.Name, level,
							compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
						if err != nil {
							t.Fatal(err)
						}
						exp, err := faultinj.NewExperimentOptions(cfg, prog, faultinj.Options{Traced: true, Checkpoints: -1})
						if err != nil {
							t.Fatal(err)
						}
						defer exp.Close()
						a, err := AnalyzeWords(prog.Code)
						if err != nil {
							t.Fatal(err)
						}
						p, err := NewDUEPruner(a, exp)
						if err != nil {
							t.Fatal(err)
						}
						seen = checkWindow(t, p)
					})
					t.Cleanup(func() {
						total.neverAgain += seen.neverAgain
						total.atROB += seen.atROB
						total.belowROB += seen.belowROB
					})
				}
			}
		}
	})
	t.Logf("states: %d never read again, %d first read at ROBSize, %d at ROBSize-1", total.neverAgain, total.atROB, total.belowROB)
	if total.neverAgain == 0 || total.atROB == 0 || total.belowROB == 0 {
		t.Errorf("the units never reached one side of the window bound: %+v", total)
	}
}

// FuzzWindowClear builds synthetic traces over a small straight-line
// program: the first byte sets the reorder-window size (1 to 24), the
// second the code length, the next three per instruction its kind and
// registers, and each byte after that one event, whose PC lands in the
// code image or outside it (below it, misaligned, or past its end). The
// window test must answer as the reader lists do at every state and
// register, and Bound as the reader-list walk.
func FuzzWindowClear(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 2, 1, 3, 4, 2, 5, 6, 0, 1, 2, 0, 0, 1, 2, 0xff, 1, 2})
	f.Add([]byte{1, 1, 3, 7, 7, 0, 0, 0, 0xfe, 0, 0xfd, 0})
	f.Add([]byte{24, 8, 0, 1, 1, 1, 2, 3, 2, 4, 5, 3, 6, 6, 0, 9, 10, 1, 11, 12, 2, 13, 14, 3, 15, 16,
		0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1, 0, 0xff, 0xfe, 0xfd, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cfg := machine.CortexA72Like()
		cfg.CPU.ROBSize = 1 + int(next())%24
		code := make([]isa.Instr, 1+int(next())%16)
		for i := range code {
			sel, r1, r2 := next(), next()%32, next()%32
			switch sel % 4 {
			case 0:
				code[i] = isa.R(isa.OpAdd, r1, r1, r2)
			case 1:
				code[i] = isa.Load(isa.OpLw, r1, r2, 0)
			case 2:
				code[i] = isa.Store(isa.OpSw, r1, r2, 0)
			default:
				code[i] = isa.Out(r1)
			}
		}
		a, err := Analyze(code)
		if err != nil {
			t.Skip(err)
		}
		trace := new(cpu.CommitTrace)
		cycle := uint64(0)
		for _, b := range data {
			pc := machine.CodeBase + 4*uint64(b%uint8(len(code)+4)) // past the end from len(code)
			switch b {
			case 0xff:
				pc = machine.CodeBase - 4
			case 0xfe:
				pc = machine.CodeBase + 2
			}
			cycle += uint64(b>>6) + 1
			trace.Append(cpu.CommitEvent{Cycle: cycle, PC: pc, DestArch: cpu.NoDest})
		}
		exp := &faultinj.Experiment{Config: cfg, Program: &machine.Program{GlobalSize: 64}, GoldenCycles: cycle + 1, Trace: trace}
		p, err := NewDUEPruner(a, exp)
		if err != nil {
			t.Fatal(err)
		}
		checkWindow(t, p)
	})
}
