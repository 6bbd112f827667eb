package cpu

import (
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/fieldtable"
	"sevsim/internal/isa"
)

// tableProgram keeps every core structure busy at once: a store, a load
// of the same word, a multiply and a divide per iteration, with an out
// and a loop branch, so the ROB, IQ, LQ, SQ, fetch queue, in-flight
// list and output all hold entries mid-run.
func tableProgram() []isa.Instr {
	const a0, a1, a2, a3, t0, t1, t2 = isa.RegA0, isa.RegA1, isa.RegA2, isa.RegA3, isa.RegT0, isa.RegT1, isa.RegT2
	return []isa.Instr{
		/*0*/ isa.I(isa.OpLui, a0, 0, 0x10), // 0x100000, the data region
		/*1*/ isa.I(isa.OpAddi, a1, isa.RegZero, 0),
		/*2*/ isa.I(isa.OpAddi, a2, isa.RegZero, 64),
		/*3*/ isa.R(isa.OpMul, a3, a1, a1),
		/*4*/ isa.I(isa.OpSlli, t0, a1, 2),
		/*5*/ isa.R(isa.OpAdd, t0, a0, t0),
		/*6*/ isa.Store(isa.OpSw, a3, t0, 0),
		/*7*/ isa.Load(isa.OpLw, t1, t0, 0),
		/*8*/ isa.R(isa.OpDiv, t2, t1, a2),
		/*9*/ isa.Out(t2),
		/*10*/ isa.I(isa.OpAddi, a1, a1, 1),
		/*11*/ isa.Branch(isa.OpBlt, a1, a2, -9), // to 3
		/*12*/ isa.Halt(),
	}
}

// busyCycle is the first cycle at which every structure the table
// perturbs through an occupied slot holds one.
func busyCycle(t *testing.T, prog []isa.Instr) uint64 {
	c := testCore(prog)
	for c.Step() {
		if c.robCount > 0 && c.iqCount > 0 && c.lqCount > 0 && c.sqCount > 0 && c.fetchLen > 0 &&
			c.nInflight > 0 && len(c.output) > 0 {
			return c.Cycle()
		}
	}
	t.Fatal("no cycle holds every structure occupied")
	return 0
}

// TestCoreFieldTable gives every Core field one row and checks it by
// perturbation (see internal/fieldtable): a state or dead field must
// survive Snapshot, the byte encoding and Restore and be seen by strict
// Equal; StateEquals must see a state field and ignore a dead one; a
// field of any other class must not arrive through a checkpoint at all.
// The slab views carved in structures.go need no row: each rides its
// slab, and StateEquals must see a flip of some element of it.
func TestCoreFieldTable(t *testing.T) {
	prog := tableProgram()
	at := busyCycle(t, prog)
	cfg := testConfig()
	sub := fieldtable.Subject[Core, *CoreState]{
		Source: func() *Core {
			c := testCore(prog)
			run(c, at)
			return c
		},
		Blank:    func() *Core { return testCore(prog) },
		Snapshot: (*Core).Snapshot,
		Restore:  (*Core).Restore,
		Encode: func(s *CoreState) (*CoreState, error) {
			var w binio.Writer
			s.EncodeTo(&w)
			return DecodeCoreState(binio.NewReader(w.Bytes()), &cfg)
		},
		Equal:       (*CoreState).Equal,
		StateEquals: (*Core).StateEquals,
		Slabs:       []string{"u64", "u16", "u8"},
	}
	// The fetch queue is a ring; a snapshot holds it in order from the
	// head and Restore lays it down from index 0.
	fetchRing := func(c *Core) any {
		older, younger := c.fetchQueue()
		return append(append([]fetchSlot(nil), older...), younger...)
	}
	// The ops in flight are a prefix of a fixed buffer; a snapshot holds
	// the prefix.
	inflight := func(c *Core) any { return append([]inflightOp(nil), c.inflight[:c.nInflight]...) }
	const (
		state       = fieldtable.State
		dead        = fieldtable.Dead
		fixed       = fieldtable.Fixed
		derived     = fieldtable.Derived
		scratch     = fieldtable.Scratch
		wiring      = fieldtable.Wiring
		fixedAtInit = "function of the immutable cfg.XLEN, fixed at construction"
		hierarchy   = "hierarchy wiring; machine.Snapshot checkpoints what it points to"
		reused      = "scratch, reset with [:0] before every use"
	)
	fieldtable.Check(t, sub, []fieldtable.Row[Core]{
		{Field: "cfg", Class: fixed, Reason: "immutable configuration, fixed at construction",
			Perturb: func(c *Core) { c.cfg.Name += "'" }}, // a geometry change would only make Restore refuse the snapshot
		{Field: "xmask", Class: fixed, Reason: fixedAtInit},
		{Field: "sxShift", Class: fixed, Reason: fixedAtInit},
		{Field: "memory", Class: wiring, Reason: hierarchy},
		{Field: "icache", Class: wiring, Reason: hierarchy},
		{Field: "dcache", Class: wiring, Reason: hierarchy},

		{Field: "u64", Class: state, Reason: "64-bit slab: PRF values, ROB/IQ/LQ/SQ words, BTB and RAS"},
		{Field: "u16", Class: state, Reason: "16-bit slab: RAT, free list, register tags and ROB links"},
		{Field: "u8", Class: state, Reason: "8-bit slab: ready/alloc bits, opcodes, entry flags, bimodal counters"},
		{Field: "robHead", Class: state, Reason: "ROB ring position"},
		{Field: "robCount", Class: state, Reason: "ROB occupancy", Perturb: func(c *Core) { c.robCount-- }},
		{Field: "lqHead", Class: state, Reason: "load-queue ring position"},
		{Field: "lqCount", Class: state, Reason: "load-queue occupancy", Perturb: func(c *Core) { c.lqCount-- }},
		{Field: "sqHead", Class: state, Reason: "store-queue ring position"},
		{Field: "sqCount", Class: state, Reason: "store-queue occupancy", Perturb: func(c *Core) { c.sqCount-- }},
		{Field: "rasTop", Class: state, Reason: "return-address stack top"},
		{Field: "freeCount", Class: state, Reason: "live length of the free-list stack"},
		{Field: "fetchPC", Class: state, Reason: "next fetch address"},
		{Field: "fetchStall", Class: state, Reason: "cycles before fetch resumes"},
		{Field: "fetchFrozen", Class: state, Reason: "fetch stopped by a fetch fault or HALT"},
		{Field: "fetchQ", Class: state, Reason: "the fetch queue's slots", View: fetchRing,
			Perturb: func(c *Core) { c.fetchQ[c.fetchHead].PC ^= 4 }},
		{Field: "fetchHead", Class: state, Reason: "where the fetch ring starts", View: fetchRing},
		{Field: "fetchLen", Class: state, Reason: "fetch ring occupancy", View: fetchRing},
		{Field: "inflight", Class: state, Reason: "operations in the functional units", View: inflight},
		{Field: "nInflight", Class: state, Reason: "how many operations are in the functional units", View: inflight,
			Perturb: func(c *Core) { c.nInflight-- }},
		{Field: "cycle", Class: state, Reason: "run position"},
		{Field: "seq", Class: state, Reason: "next instruction sequence number"},
		{Field: "expectPC", Class: state, Reason: "next PC commit expects"},
		{Field: "halted", Class: state, Reason: "HALT committed"},
		{Field: "crash", Class: state, Reason: "the run's crash, once committed"},
		{Field: "output", Class: state, Reason: "committed output stream, the classification observable"},
		{Field: "iqCount", Class: state, Reason: "issue-queue occupancy"},
		{Field: "prfLive", Class: state, Reason: "allocated physical registers"},

		{Field: "squashedAfter", Class: dead, Reason: "reassigned before every use within a cycle; never read across a cycle boundary"},
		{Field: "Stats", Class: dead, Reason: "event counters; never fed back into execution or classification (a converged run may carry different counts)"},

		{Field: "maxOutput", Class: fixed, Reason: "immutable output-ring bound, fixed at construction"},
		{Field: "fetchFacts", Class: derived, Reason: "pure function of each queued slot's decode and the configuration; Restore recomputes it"},
		{Field: "iqValid", Class: derived, Reason: "index over the qValid bits of iqFlags; Restore rebuilds it from the slab"},
		{Field: "iqReady", Class: derived, Reason: "index over the ready state of iqFlags; Restore rebuilds it from the slab"},
		{Field: "iqWaiters", Class: derived, Reason: "index over iqSrc1/iqSrc2 and the ready bits of iqFlags; Restore rebuilds it from the slabs"},
		{Field: "lqPending", Class: derived, Reason: "index over the state bits of lqFlags; Restore rebuilds it from the slab"},
		{Field: "lqRetry", Class: derived, Reason: "what loadOne last found in the store queue; Restore sets every bit"},
		{Field: "lqWaitSQ", Class: derived, Reason: "per store-queue slot, the loads last found blocked behind it; Restore clears it with lqRetry all set"},
		{Field: "fetchSpanLo", Class: derived, Reason: "memo over the immutable executable mapping; a miss falls back to Memory.CheckFetch"},
		{Field: "fetchSpanHi", Class: derived, Reason: "memo over the immutable executable mapping; a miss falls back to Memory.CheckFetch"},
		{Field: "dec", Class: derived, Reason: "predecode memo of pure functions of the fetched word and the configuration; a miss recomputes"},
		{Field: "dueBuf", Class: scratch, Reason: reused},
		{Field: "opsBuf", Class: scratch, Reason: reused},
		{Field: "cand", Class: scratch, Reason: "scratch, written up to the count before every use",
			Perturb: func(c *Core) { c.cand[0] ^= 1 }},
		{Field: "commitHook", Class: wiring, Reason: "observer of committed instructions, not simulated state",
			Perturb: func(c *Core) { c.commitHook = func(CommitEvent) {} }},
	})
}
