package cpu

// Struct-of-arrays backing store for the hot-loop core state.
//
// Every fixed-size per-entry structure the pipeline scans each cycle —
// the physical register file, RAT, free list, ROB, issue queue,
// load/store queues, and predictor tables — lives in one of three
// contiguous slabs (one per scalar width). The named views below are
// sub-slices carved out of the slabs at construction, so the per-cycle
// scan loops walk tight homogeneous arrays instead of striding across
// fat structs, and Snapshot/Restore/Equal collapse to three flat
// copies/compares (DESIGN.md §12).
//
// Layout invariants the rest of the package relies on:
//
//   - a view is never reallocated or resliced after carve: writing
//     through a view writes the slab, and copying the slab captures
//     every view;
//   - per-entry boolean state is packed into one flag byte per entry
//     (robFlags/iqFlags/lqFlags/sqFlags) with the bit assignments
//     below, so "invalidate entry" or "compare entry state" is one
//     byte operation;
//   - ring slots and free-list tails are never cleared on pop: dead
//     slots keep their bytes (exactly like the old per-struct rings),
//     which keeps restored runs bit-identical and leaves dead state
//     injectable, masked naturally as in hardware.

import "sevsim/internal/isa"

// physTagBits is the injected width of a physical register tag. Both
// configurations have at most 256 physical registers.
const physTagBits = 8

const noReg = 0xff    // no architectural register
const noPhys = 0xffff // no physical register
const badIdx = ^uint16(0)

// robFlags bits. Done/IsStore/IsLoad/IsBranch plus the exception code
// and arch dest form the injectable control word (see faults.go); the
// branch-resolution bits are side metadata.
const (
	rDone      = 1 << 0
	rIsStore   = 1 << 1
	rIsLoad    = 1 << 2
	rIsBranch  = 1 << 3 // conditional branch or indirect jump (needs resolution)
	rPredTaken = 1 << 4
	rActTaken  = 1 << 5
	rResolved  = 1 << 6
)

// iqFlags bits. Valid plus the two ready bits are injectable (the
// ready bits through the Source field); Issued is vestigial wiring
// kept for layout stability.
const (
	qValid  = 1 << 0
	qIssued = 1 << 1
	qRdy1   = 1 << 2
	qRdy2   = 1 << 3
)

// lqFlags bits. Valid/AddrReady/Done are the injectable state bits of
// a load-queue entry; Inflight and SignExt are side metadata.
const (
	lValid     = 1 << 0
	lAddrReady = 1 << 1
	lDone      = 1 << 2
	lInflight  = 1 << 3
	lSignExt   = 1 << 4
)

// sqFlags bits. Both are injectable.
const (
	sValid = 1 << 0
	sReady = 1 << 1 // address+data computed
)

// soa holds the three backing slabs and the named views carved out of
// them. Core embeds it; CoreState embeds it too, so a snapshot is the
// same shape and the equality walks index both sides identically.
//
// The views alias slab memory, so copying the slabs in Snapshot/Restore
// carries them. TestCoreFieldTable recognises a view by that aliasing,
// needs no row for it, and requires StateEquals to see a flip of some
// element of every view.
type soa struct {
	// Backing slabs: one contiguous array per scalar width. These are
	// what Snapshot/Restore copy and CoreState.Equal compares.
	u64 []uint64
	u16 []uint16
	u8  []uint8

	// Physical register file and rename state.
	prf      []uint64
	prfReady []uint8
	prfAlloc []uint8
	rat      []uint16
	freeBack []uint16

	// Reorder buffer, one array per former robEntry field. The four
	// injectable fields the paper names are PC, the destination tag,
	// the old-mapping tag, and the control word (robArch + robExc +
	// the low robFlags bits); the rest is side metadata.
	robPC      []uint64
	robSeq     []uint64
	robPredTgt []uint64
	robActTgt  []uint64
	robOutVal  []uint64 // value captured at execute for OUT instructions
	robDest    []uint16
	robOld     []uint16
	robLQ      []uint16 // badIdx when not a load
	robSQ      []uint16 // badIdx when not a store
	robArch    []uint8  // noReg when no register written
	robExc     []uint8  // exception code; 0 = none
	robOp      []uint8
	robFlags   []uint8

	// Issue queue. Src tags + ready bits form the injectable Source
	// field; dest tag + ROB linkage form the Destination field.
	iqImm   []uint64 // int64 immediate stored as uint64
	iqSeq   []uint64
	iqSrc1  []uint16
	iqSrc2  []uint16
	iqDest  []uint16
	iqROB   []uint16
	iqOp    []uint8
	iqFlags []uint8

	// Load queue: address word, dest tag, ROB linkage, state bits.
	lqAddr   []uint64
	lqSeq    []uint64
	lqFillAt []uint64 // completion cycle once in flight
	lqDest   []uint16
	lqROB    []uint16
	lqSize   []uint8
	lqFlags  []uint8

	// Store queue: address, data, ROB linkage, state bits.
	sqAddr  []uint64
	sqData  []uint64
	sqSeq   []uint64
	sqROB   []uint16
	sqSize  []uint8
	sqFlags []uint8

	// Branch predictor tables. Predictor state is not a fault target
	// (a corrupted prediction is architecturally masked — it only
	// costs time) but it is checkpoint state: it steers speculative
	// cache fills and timing.
	bimodal []uint8 // 2-bit saturating counters
	btbTag  []uint64
	btbTgt  []uint64
	ras     []uint64
}

// slabSizes returns the three slab lengths the configuration needs.
func slabSizes(cfg *Config) (n64, n16, n8 int) {
	P, A := cfg.NumPhysRegs, cfg.NumArchRegs
	R, I, L, S := cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize
	n64 = P + 5*R + 2*I + 3*L + 3*S + 2*cfg.BTBSize + cfg.RASSize
	n16 = A + P + 4*R + 4*I + 2*L + S
	n8 = 2*P + 4*R + 2*I + 2*L + 2*S + cfg.BimodalSize
	return
}

// carve sizes the slabs for cfg (allocating only when the lengths do
// not already match, so pooled snapshots reuse their buffers) and
// re-slices every view. The carving order is fixed; it is part of the
// snapshot format in the sense that two soas carved for the same
// config have their views at identical slab offsets.
func (a *soa) carve(cfg *Config) {
	n64, n16, n8 := slabSizes(cfg)
	if len(a.u64) != n64 {
		a.u64 = make([]uint64, n64)
	}
	if len(a.u16) != n16 {
		a.u16 = make([]uint16, n16)
	}
	if len(a.u8) != n8 {
		a.u8 = make([]uint8, n8)
	}
	P, A := cfg.NumPhysRegs, cfg.NumArchRegs
	R, I, L, S := cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize

	o := 0
	cut64 := func(n int) []uint64 { v := a.u64[o : o+n : o+n]; o += n; return v }
	a.prf = cut64(P)
	a.robPC = cut64(R)
	a.robSeq = cut64(R)
	a.robPredTgt = cut64(R)
	a.robActTgt = cut64(R)
	a.robOutVal = cut64(R)
	a.iqImm = cut64(I)
	a.iqSeq = cut64(I)
	a.lqAddr = cut64(L)
	a.lqSeq = cut64(L)
	a.lqFillAt = cut64(L)
	a.sqAddr = cut64(S)
	a.sqData = cut64(S)
	a.sqSeq = cut64(S)
	a.btbTag = cut64(cfg.BTBSize)
	a.btbTgt = cut64(cfg.BTBSize)
	a.ras = cut64(cfg.RASSize)

	o = 0
	cut16 := func(n int) []uint16 { v := a.u16[o : o+n : o+n]; o += n; return v }
	a.rat = cut16(A)
	a.freeBack = cut16(P)
	a.robDest = cut16(R)
	a.robOld = cut16(R)
	a.robLQ = cut16(R)
	a.robSQ = cut16(R)
	a.iqSrc1 = cut16(I)
	a.iqSrc2 = cut16(I)
	a.iqDest = cut16(I)
	a.iqROB = cut16(I)
	a.lqDest = cut16(L)
	a.lqROB = cut16(L)
	a.sqROB = cut16(S)

	o = 0
	cut8 := func(n int) []uint8 { v := a.u8[o : o+n : o+n]; o += n; return v }
	a.prfReady = cut8(P)
	a.prfAlloc = cut8(P)
	a.robArch = cut8(R)
	a.robExc = cut8(R)
	a.robOp = cut8(R)
	a.robFlags = cut8(R)
	a.iqOp = cut8(I)
	a.iqFlags = cut8(I)
	a.lqSize = cut8(L)
	a.lqFlags = cut8(L)
	a.sqSize = cut8(S)
	a.sqFlags = cut8(S)
	a.bimodal = cut8(cfg.BimodalSize)
}

// Exception codes stored in robExc (3 bits injected).
const (
	excNone      = 0
	excUnmapped  = 1
	excMisalign  = 2
	excProt      = 3
	excIllegal   = 4
	excBadFetch  = 5
	excSpurious1 = 6 // reachable only via injected flips
	excSpurious2 = 7
)

func excName(code uint8) string {
	switch code {
	case excUnmapped:
		return "unmapped access"
	case excMisalign:
		return "misaligned access"
	case excProt:
		return "protection violation"
	case excIllegal:
		return "illegal instruction"
	case excBadFetch:
		return "instruction fetch fault"
	}
	return "spurious exception"
}

// fetchSlot is one decoupling-buffer entry between fetch and rename.
// The fetch queue is variable-length and tiny, so it stays a plain
// struct slice rather than joining the slabs.
type fetchSlot struct {
	PC         uint64
	Word       uint32
	In         isa.Instr // predecoded once at fetch
	FetchFault bool      // instruction fetch failed; raises at commit
	PredTaken  bool
	PredTarget uint64
}

// inflightOp is an operation executing in a functional unit.
type inflightOp struct {
	DoneAt uint64
	Dest   uint16 // noPhys when no register result
	Value  uint64
	ROBIdx uint16
	Seq    uint64
}
