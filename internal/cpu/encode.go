package cpu

// Binary serialization of CoreState for the prep-artifact cache
// (internal/artcache): a cached checkpoint stream lets a warm run skip
// the golden simulation entirely. The encoding is canonical — the same
// state always produces the same bytes — and bit-complete with respect
// to CoreState.Equal: DecodeCoreState(EncodeTo(s)) is strictly Equal
// to s, which checkpoint's TestStreamEncodeRoundTrip asserts against
// live mid-run snapshots, and TestCoreFieldTable perturbs every carried
// Core field and requires the change to survive EncodeTo and
// DecodeCoreState. Dead state is included (it is part of strict
// equality and costs little after zero-run compression of the u8 slab).
//
// The fetch slots, the in-flight operations and Stats are fixed-layout
// records written whole (binio.Fixed), so a field added to one is
// encoded with no edit here. The slabs (zero runs), the scalars between
// the variable-length parts (range-checked by name on decode) and the
// commit trace (10^5-10^6 events, too many to reflect over) are written
// by hand.
//
// There is no per-struct version tag here: the enclosing prep bundle
// (internal/core) carries the format version, and the artifact cache
// checksums every blob, so a reader never sees a stale layout. Anyone
// changing CoreState or the slab carving must bump the bundle version
// (core.prepBundleVersion); the field table fails when a field of the
// state is left out of the encoding.

import (
	"fmt"

	"sevsim/internal/binio"
	"sevsim/internal/simerr"
)

// EncodeTo appends the snapshot's complete state to w.
func (s *CoreState) EncodeTo(w *binio.Writer) {
	w.U64s(s.u64)
	w.U16s(s.u16)
	w.RLE(s.u8)

	w.Int(s.ROBHead)
	w.Int(s.ROBCount)
	w.Int(s.LQHead)
	w.Int(s.LQCount)
	w.Int(s.SQHead)
	w.Int(s.SQCount)
	w.Int(s.RASTop)
	w.Int(s.FreeCount)

	w.U64(s.FetchPC)
	w.Uvarint(uint64(len(s.FetchQ)))
	w.Fixed(s.FetchQ)
	w.U64(s.FetchStall)
	w.Bool(s.FetchFrozen)

	w.Uvarint(uint64(len(s.Inflight)))
	w.Fixed(s.Inflight)

	w.U64(s.Cycle)
	w.U64(s.Seq)
	w.U64(s.ExpectPC)
	w.Bool(s.Halted)
	w.Bool(s.Crash != nil)
	if s.Crash != nil {
		w.String(s.Crash.Reason)
		w.U64(s.Crash.Addr)
		w.U64(s.Crash.PC)
	}

	w.U64s(s.Output)
	w.U64(s.SquashedAfter)
	w.Int(s.IQCount)
	w.Int(s.PRFLive)

	w.Fixed(&s.Stats)
}

// DecodeCoreState reads one CoreState written by EncodeTo into a
// pooled snapshot carved for cfg, which must be the configuration the
// state was captured under: the slab lengths are validated against it
// before the views are carved, exactly like Restore validates against
// a live core. The caller owns the result and must Release it.
func DecodeCoreState(r *binio.Reader, cfg *Config) (*CoreState, error) {
	s := coreStatePool.Get().(*CoreState)
	fail := func(err error) (*CoreState, error) {
		s.Crash = nil
		coreStatePool.Put(s)
		return nil, err
	}

	s.u64 = r.U64sInto(s.u64)
	s.u16 = r.U16sInto(s.u16)
	s.u8 = r.RLEInto(s.u8)
	if err := r.Err(); err != nil {
		return fail(err)
	}
	n64, n16, n8 := slabSizes(cfg)
	if len(s.u64) != n64 || len(s.u16) != n16 || len(s.u8) != n8 {
		return fail(fmt.Errorf("cpu: decode: slab lengths %d/%d/%d do not match config (want %d/%d/%d)",
			len(s.u64), len(s.u16), len(s.u8), n64, n16, n8))
	}
	s.carve(cfg)

	s.ROBHead = r.Int()
	s.ROBCount = r.Int()
	s.LQHead = r.Int()
	s.LQCount = r.Int()
	s.SQHead = r.Int()
	s.SQCount = r.Int()
	s.RASTop = r.Int()
	s.FreeCount = r.Int()
	// These index the slabs directly (ring walks, freeBack[:FreeCount],
	// ras[RASTop%len]); faults flip slab bits, never these, so a value no
	// run can reach is a damaged stream, not a state to restore.
	ring := func(head, count, size int) bool {
		return head >= 0 && head < size && count >= 0 && count <= size
	}
	if !ring(s.ROBHead, s.ROBCount, cfg.ROBSize) || !ring(s.LQHead, s.LQCount, cfg.LQSize) ||
		!ring(s.SQHead, s.SQCount, cfg.SQSize) || s.RASTop < 0 ||
		s.FreeCount < 0 || s.FreeCount > len(s.freeBack) {
		return fail(fmt.Errorf("cpu: decode: queue heads/counts out of range for the config (ROB %d+%d, LQ %d+%d, SQ %d+%d, RAS %d, free %d)",
			s.ROBHead, s.ROBCount, s.LQHead, s.LQCount, s.SQHead, s.SQCount, s.RASTop, s.FreeCount))
	}

	s.FetchPC = r.U64()
	nq := int(r.Uvarint())
	if nq < 0 || nq > cfg.FetchQueueSize+1 {
		return fail(fmt.Errorf("cpu: decode: fetch queue length %d exceeds config", nq))
	}
	if cap(s.FetchQ) < nq {
		s.FetchQ = make([]fetchSlot, nq)
	} else {
		s.FetchQ = s.FetchQ[:nq]
	}
	r.Fixed(s.FetchQ)
	s.FetchStall = r.U64()
	s.FetchFrozen = r.Bool()

	ni := int(r.Uvarint())
	if ni < 0 || ni > 4*(cfg.IQSize+cfg.LQSize)+8 {
		return fail(fmt.Errorf("cpu: decode: inflight length %d exceeds config", ni))
	}
	if cap(s.Inflight) < ni {
		s.Inflight = make([]inflightOp, ni)
	} else {
		s.Inflight = s.Inflight[:ni]
	}
	r.Fixed(s.Inflight)

	s.Cycle = r.U64()
	s.Seq = r.U64()
	s.ExpectPC = r.U64()
	s.Halted = r.Bool()
	s.Crash = nil
	if r.Bool() {
		s.Crash = &simerr.Crash{Reason: r.String(), Addr: r.U64(), PC: r.U64()}
	}

	s.Output = r.U64sInto(s.Output)
	s.SquashedAfter = r.U64()
	s.IQCount = r.Int()
	s.PRFLive = r.Int()

	r.Fixed(&s.Stats)
	if err := r.Err(); err != nil {
		return fail(err)
	}
	return s, nil
}

// EncodeCommitEvents appends a length-prefixed commit trace to w; the
// trace is the prune-path half of a cached prep artifact. A nil trace
// encodes as the empty one.
func EncodeCommitEvents(w *binio.Writer, t *CommitTrace) {
	n := t.Len()
	w.Uvarint(uint64(n))
	w.Grow(19 * n)
	for i := 0; i < n; i++ {
		ev := t.At(i)
		w.U64(ev.Cycle)
		w.U64(ev.PC)
		w.U8(ev.DestArch)
		w.U16(ev.DestPhys)
	}
}

// DecodeCommitEvents reads a trace written by EncodeCommitEvents; an
// empty one decodes to nil, the trace of an untraced run.
func DecodeCommitEvents(r *binio.Reader) *CommitTrace {
	n := int(r.Uvarint())
	if n < 0 || n > r.Len()/19+1 {
		r.Fail(fmt.Errorf("cpu: decode: commit trace length %d exceeds remaining input", n))
		return nil
	}
	if n == 0 {
		return nil
	}
	t := &CommitTrace{}
	for i := 0; i < n; i++ {
		t.Append(CommitEvent{Cycle: r.U64(), PC: r.U64(), DestArch: r.U8(), DestPhys: r.U16()})
	}
	return t
}
