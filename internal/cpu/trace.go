package cpu

import "unsafe"

// NoDest marks a CommitEvent whose instruction wrote no architectural
// register (stores, branches, OUT, HALT, NOP).
const NoDest uint8 = 0xff

// CommitEvent describes one architecturally committed instruction. The
// sequence of events of a fault-free run is exactly the program's
// dynamic instruction stream in program order: squashed (wrong-path)
// instructions never commit and therefore never appear.
//
// The binary-level ACE analysis uses the event stream to reconstruct,
// for any cycle, (a) the index of the last committed instruction and
// (b) the committed rename map (architectural register -> physical
// register): when an instruction with DestArch=a commits, the committed
// mapping of a becomes DestPhys and stays there until the next writer
// of a commits.
type CommitEvent struct {
	Cycle    uint64 // cycle at which the instruction committed
	PC       uint64 // instruction address
	DestArch uint8  // architectural destination, NoDest when none
	DestPhys uint16 // physical destination tag (undefined when DestArch is NoDest)
}

// SetCommitHook installs a callback invoked once per committed
// instruction, in commit (program) order. A nil hook (the default)
// costs one predictable branch per commit; tracing is enabled only for
// golden runs that feed the static ACE analysis, never on the fault
// injection hot path.
func (c *Core) SetCommitHook(fn func(CommitEvent)) { c.commitHook = fn }

// traceChunk is the number of events per CommitTrace chunk (about 4
// bytes each, so 65 KiB): large enough that chunk bookkeeping vanishes,
// small enough that the last, partly filled one wastes little. Every
// traceBlock events of a chunk share one cycle base.
const (
	traceChunkShift = 14
	traceChunk      = 1 << traceChunkShift
	traceBlockShift = 6
	traceBlock      = 1 << traceBlockShift
)

// sideBase is the first PC slot value that marks an event kept whole in
// its chunk's side table: slot sideBase+k holds side event k. PC words
// from sideBase up therefore go to the side table themselves.
const sideBase = 0xffff - traceChunk

// unlearned marks a PC word of CommitTrace.dest whose destination no
// event has set yet. No register is numbered 0xfe and NoDest is 0xff,
// so only a contrived event carries it as its DestArch; such an event
// goes to the side table.
const unlearned uint8 = 0xfe

// traceColumns is one chunk of a CommitTrace stored column-wise and
// narrowed: an event's cycle is its block's base plus an 8-bit offset,
// its PC a 16-bit word offset from the trace's first PC, and its
// destination tag plus one a byte (so 0 stands for noPhys, and tags 0
// to 0xfe fit); its architectural destination is its PC's, in the
// trace's per-PC table. A golden run commits every few cycles from a
// code image that starts at its entry point, and an instruction always
// writes the same register, so all but a corrupt or contrived event and
// the few that commit after a long stall fit. Arrays, so At's second
// index needs no bounds check. side comes first so that the collector's
// scan of a chunk ends at its one pointer.
type traceColumns struct {
	side     []CommitEvent // the events the narrow columns cannot hold
	base     [traceChunk / traceBlock]uint64
	cycle    [traceChunk]uint8
	pc       [traceChunk]uint16
	destPhys [traceChunk]uint8
}

// CommitTrace is a golden run's commit stream, in program order. The
// run's length is unknown until it halts, so events go into fixed-size
// chunks that are never moved or joined: the trace a run records is the
// trace its experiment holds, its pruners index and its bundle encodes,
// and it exists once. An event that does not fit the narrow columns (a
// cycle more than 255 past its block's base, a PC below the first,
// unaligned or at or past sideBase words above it, a tag from 0xff to
// 0xfffe, a DestArch other than the first one committed at its PC) is
// kept whole in its chunk's side table, its PC slot holding sideBase
// plus its index there, so At returns exactly what Append received. A
// nil *CommitTrace is the empty trace of an untraced run. Append must
// not race with the readers; a finished trace is immutable and safe for
// concurrent use.
type CommitTrace struct {
	chunks []*traceColumns
	dest   []uint8 // DestArch by PC word, learned from the first narrow event there
	n      int
	pc0    uint64 // the first event's PC, the base of every PC offset
}

// Append adds one event at the end; SetCommitHook takes it as the hook.
func (t *CommitTrace) Append(ev CommitEvent) {
	i := t.n & (traceChunk - 1)
	if i == 0 {
		t.chunks = append(t.chunks, new(traceColumns))
	}
	if t.n == 0 {
		t.pc0 = ev.PC
	}
	t.n++
	c := t.chunks[len(t.chunks)-1]
	if i&(traceBlock-1) == 0 {
		c.base[i>>traceBlockShift] = ev.Cycle
	}
	base := c.base[i>>traceBlockShift]
	dc, dpc := ev.Cycle-base, ev.PC-t.pc0
	phys := ev.DestPhys + 1 // noPhys wraps to 0
	w := dpc >> 2
	// A cycle below the base or a PC below the first wraps past its limit.
	if dc <= 0xff && dpc&3 == 0 && w < sideBase && phys <= 0xff && ev.DestArch != unlearned {
		for uint64(len(t.dest)) <= w {
			t.dest = append(t.dest, unlearned)
		}
		if t.dest[w] == unlearned {
			t.dest[w] = ev.DestArch
		}
		if t.dest[w] == ev.DestArch {
			c.cycle[i], c.pc[i], c.destPhys[i] = uint8(dc), uint16(w), uint8(phys)
			return
		}
	}
	c.pc[i] = uint16(sideBase + len(c.side))
	c.side = append(c.side, ev)
}

// Len returns the number of events; 0 for a nil trace.
func (t *CommitTrace) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// At returns event i, 0 <= i < Len.
func (t *CommitTrace) At(i int) CommitEvent {
	c, j := t.chunks[i>>traceChunkShift], i&(traceChunk-1)
	w := c.pc[j]
	if w >= sideBase {
		return c.side[w-sideBase]
	}
	return CommitEvent{
		Cycle:    c.base[j>>traceBlockShift] + uint64(c.cycle[j]),
		PC:       t.pc0 + uint64(w)<<2,
		DestArch: t.dest[w],
		DestPhys: uint16(c.destPhys[j]) - 1, // 0 wraps to noPhys
	}
}

// ResidentBytes returns the memory the trace's chunks, their side
// tables and its per-PC destination table hold.
func (t *CommitTrace) ResidentBytes() int {
	if t == nil {
		return 0
	}
	n := len(t.chunks)*int(unsafe.Sizeof(traceColumns{})) + cap(t.dest)
	for _, c := range t.chunks {
		n += cap(c.side) * int(unsafe.Sizeof(CommitEvent{}))
	}
	return n
}
