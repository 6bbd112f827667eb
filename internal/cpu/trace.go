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

// traceChunk is the number of events per CommitTrace chunk (19 bytes
// each, so 304 KiB): large enough that chunk bookkeeping vanishes, small
// enough that the last, partly filled one wastes little.
const (
	traceChunkShift = 14
	traceChunk      = 1 << traceChunkShift
)

// traceColumns is one chunk of a CommitTrace stored column-wise, so an
// event takes its fields' 19 bytes and not the 24 of a padded
// CommitEvent. Arrays, so At's second index needs no bounds check.
type traceColumns struct {
	cycle    [traceChunk]uint64
	pc       [traceChunk]uint64
	destPhys [traceChunk]uint16
	destArch [traceChunk]uint8
}

// CommitTrace is a golden run's commit stream, in program order. The
// run's length is unknown until it halts, so events go into fixed-size
// chunks that are never moved or joined: the trace a run records is the
// trace its experiment holds, its pruners index and its bundle encodes,
// and it exists once. A nil *CommitTrace is the empty trace of an
// untraced run. Append must not race with the readers; a finished trace
// is immutable and safe for concurrent use.
type CommitTrace struct {
	chunks []*traceColumns
	n      int
}

// Append adds one event at the end; SetCommitHook takes it as the hook.
func (t *CommitTrace) Append(ev CommitEvent) {
	i := t.n & (traceChunk - 1)
	if i == 0 {
		t.chunks = append(t.chunks, new(traceColumns))
	}
	c := t.chunks[len(t.chunks)-1]
	c.cycle[i], c.pc[i], c.destPhys[i], c.destArch[i] = ev.Cycle, ev.PC, ev.DestPhys, ev.DestArch
	t.n++
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
	return CommitEvent{Cycle: c.cycle[j], PC: c.pc[j], DestArch: c.destArch[j], DestPhys: c.destPhys[j]}
}

// ResidentBytes returns the memory the trace's chunks hold.
func (t *CommitTrace) ResidentBytes() int {
	if t == nil {
		return 0
	}
	return len(t.chunks) * int(unsafe.Sizeof(traceColumns{}))
}
