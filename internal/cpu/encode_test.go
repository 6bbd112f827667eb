package cpu

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"sevsim/internal/binio"
)

// traceOf builds the trace a run committing evs would record.
func traceOf(evs ...CommitEvent) *CommitTrace {
	t := &CommitTrace{}
	for _, ev := range evs {
		t.Append(ev)
	}
	return t
}

// TestCommitEventsRoundTrip holds the encoding to hand-written bytes —
// a uvarint count, then 19 little-endian bytes per event — so a cache
// filled before the trace was chunked stays readable, and checks that
// decoding gives the events back.
func TestCommitEventsRoundTrip(t *testing.T) {
	cases := []struct {
		trace *CommitTrace
		want  []byte
	}{
		{nil, []byte{0}},
		{&CommitTrace{}, []byte{0}},
		{traceOf(CommitEvent{Cycle: 1, PC: 0x1000, DestArch: 5, DestPhys: 42}), []byte{
			1,
			1, 0, 0, 0, 0, 0, 0, 0, 0x00, 0x10, 0, 0, 0, 0, 0, 0, 5, 42, 0,
		}},
		{traceOf(
			CommitEvent{Cycle: 10, PC: 0x2000, DestArch: 0xFF, DestPhys: 0},
			CommitEvent{Cycle: 11, PC: 0x2004, DestArch: 1, DestPhys: 65535},
			CommitEvent{Cycle: 999999999, PC: 0xFFFFFFFFFFFFFFFF, DestArch: 31, DestPhys: 128},
		), []byte{
			3,
			10, 0, 0, 0, 0, 0, 0, 0, 0x00, 0x20, 0, 0, 0, 0, 0, 0, 0xFF, 0, 0,
			11, 0, 0, 0, 0, 0, 0, 0, 0x04, 0x20, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF,
			0xFF, 0xC9, 0x9A, 0x3B, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 31, 128, 0,
		}},
	}
	for i, c := range cases {
		var w binio.Writer
		EncodeCommitEvents(&w, c.trace)
		if !bytes.Equal(w.Bytes(), c.want) {
			t.Fatalf("case %d: encoded % x, want % x", i, w.Bytes(), c.want)
		}
		r := binio.NewReader(w.Bytes())
		got := DecodeCommitEvents(r)
		if r.Err() != nil || r.Len() != 0 {
			t.Fatalf("case %d: error %v, %d bytes left", i, r.Err(), r.Len())
		}
		if got.Len() != c.trace.Len() || (got.Len() == 0) != (got == nil) {
			t.Fatalf("case %d: decoded %d events (nil: %v), want %d", i, got.Len(), got == nil, c.trace.Len())
		}
		for k := 0; k < got.Len(); k++ {
			if got.At(k) != c.trace.At(k) {
				t.Fatalf("case %d: event %d is %+v, want %+v", i, k, got.At(k), c.trace.At(k))
			}
		}
	}
}

// TestCommitTraceChunks: order and Len at every chunk boundary, recorded
// and through the encoding, whose bytes must not depend on chunking.
func TestCommitTraceChunks(t *testing.T) {
	if n := (*CommitTrace)(nil).Len(); n != 0 {
		t.Errorf("nil trace has Len %d", n)
	}
	event := func(i int) CommitEvent {
		return CommitEvent{Cycle: uint64(i), PC: uint64(4 * i), DestArch: uint8(i), DestPhys: uint16(i)}
	}
	for _, n := range []int{0, 1, traceChunk - 1, traceChunk, traceChunk + 1, 2*traceChunk + 7} {
		rec := &CommitTrace{}
		var flat binio.Writer // the layout, written without a trace
		flat.Uvarint(uint64(n))
		for i := 0; i < n; i++ {
			if rec.Len() != i {
				t.Fatalf("n=%d: Len %d after %d appends", n, rec.Len(), i)
			}
			rec.Append(event(i))
			flat.U64(uint64(i))
			flat.U64(uint64(4 * i))
			flat.U8(uint8(i))
			flat.U16(uint16(i))
		}
		var w binio.Writer
		EncodeCommitEvents(&w, rec)
		if !bytes.Equal(w.Bytes(), flat.Bytes()) {
			t.Fatalf("n=%d: encoding differs from the flat layout", n)
		}
		dec := DecodeCommitEvents(binio.NewReader(w.Bytes()))
		for _, tr := range []*CommitTrace{rec, dec} {
			if tr.Len() != n {
				t.Fatalf("n=%d: Len %d", n, tr.Len())
			}
			for i := 0; i < n; i++ {
				if tr.At(i) != event(i) {
					t.Fatalf("n=%d: event %d is %+v", n, i, tr.At(i))
				}
			}
		}
		if want := (n + traceChunk - 1) / traceChunk; len(rec.chunks) != want {
			t.Errorf("n=%d: %d chunks, want %d", n, len(rec.chunks), want)
		}
	}
}

// goldenDest is the destination a synthetic golden run writes at pc:
// one per PC, NoDest included.
func goldenDest(pc uint64) uint8 {
	if d := uint8(pc>>2) % 33; d < 32 {
		return d
	}
	return NoDest
}

// TestCommitTraceColumns round-trips events through Append/At and
// through the bundle codec across three chunk boundaries: three in four
// of the narrow kind a golden run commits (the destination a function
// of the PC), the rest random, with every field at its edges at both
// ends of every chunk: NoDest, DestPhys 0xffff, PCs outside any code
// image and ^uint64(0), cycles next to 2^64. What the narrow columns
// cannot hold goes to its chunk's side table; a chunk holds 4 bytes an
// event, 8 a 64-event block and a 24-byte slice header, its side table
// 24 bytes an event, and the trace one byte per PC word of its
// destination table.
func TestCommitTraceColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	n := 3*traceChunk + 123
	edges := []CommitEvent{
		{Cycle: ^uint64(0), PC: ^uint64(0), DestArch: NoDest, DestPhys: 0xffff},
		{Cycle: ^uint64(0) - 1, PC: 2, DestArch: 31, DestPhys: 0xffff},
		{Cycle: 1 << 63, PC: 1<<32 + 4, DestArch: NoDest, DestPhys: 0},
		{Cycle: 0, PC: 0, DestArch: 0, DestPhys: 0x100},
	}
	want := make([]CommitEvent, n)
	rec := &CommitTrace{}
	var cycle uint64
	for i := range want {
		ev := CommitEvent{Cycle: rng.Uint64(), PC: rng.Uint64(), DestArch: uint8(rng.Intn(33)), DestPhys: uint16(rng.Uint32())}
		if ev.DestArch == 32 {
			ev.DestArch = NoDest
		}
		if i == 0 || rng.Intn(4) != 0 {
			cycle += uint64(rng.Intn(4))
			ev.Cycle, ev.PC, ev.DestPhys = cycle, 0x10000+4*uint64(rng.Intn(sideBase)), uint16(rng.Intn(0xff))
			if i == 0 {
				ev.PC = 0x10000 // the PC base, below every other narrow PC
			}
			ev.DestArch = goldenDest(ev.PC)
			if rng.Intn(8) == 0 {
				ev.DestPhys = 0xffff
			}
		}
		if i > 0 && (i%traceChunk < len(edges) || traceChunk-1-i%traceChunk < len(edges)) {
			ev = edges[i%len(edges)] // both ends of every chunk
		}
		want[i] = ev
		rec.Append(ev)
	}
	if side := SideEvents(rec); side == 0 || side >= n/2 {
		t.Errorf("%d of %d events in the side tables", side, n)
	}
	var w binio.Writer
	EncodeCommitEvents(&w, rec)
	r := binio.NewReader(w.Bytes())
	dec := DecodeCommitEvents(r)
	if r.Err() != nil || r.Len() != 0 || len(w.Bytes()) != 19*n+3 {
		t.Fatalf("encoded %d bytes for %d events; decode error %v, %d bytes left", len(w.Bytes()), n, r.Err(), r.Len())
	}
	for _, tr := range []*CommitTrace{rec, dec} {
		if tr.Len() != n {
			t.Fatalf("Len %d, want %d", tr.Len(), n)
		}
		for i, ev := range want {
			if got := tr.At(i); got != ev {
				t.Fatalf("event %d is %+v, want %+v", i, got, ev)
			}
		}
		chunks, side := (n+traceChunk-1)/traceChunk, 0
		for _, c := range tr.chunks {
			side += cap(c.side)
		}
		if len(tr.dest) == 0 || len(tr.dest) > sideBase {
			t.Errorf("destination table of %d PC words", len(tr.dest))
		}
		if want := chunks*(24+16384/64*8+16384*4) + side*24 + cap(tr.dest); tr.ResidentBytes() != want {
			t.Errorf("%d resident bytes in %d chunks, %d side slots and %d PC words, want %d",
				tr.ResidentBytes(), chunks, side, cap(tr.dest), want)
		}
	}
}

// TestCommitTraceNarrowBounds appends, after a first event that sets the
// PC base, its block's cycle base and the destination at the base PC,
// each event on either side of every narrow column's range, and checks
// that exactly the ones past it go to the side table and that every one
// reads back as appended. Its PC slot holds sideBase plus a side
// event's index, so the last narrow PC word is sideBase-1.
func TestCommitTraceNarrowBounds(t *testing.T) {
	first := CommitEvent{Cycle: 100, PC: 0x1000, DestArch: 1, DestPhys: 40}
	cases := []struct {
		ev   CommitEvent
		side bool
	}{
		{CommitEvent{Cycle: 100 + 0xff, PC: 0x1000, DestArch: 1, DestPhys: 0}, false},
		{CommitEvent{Cycle: 100 + 0x100, PC: 0x1000, DestArch: 1, DestPhys: 0}, true},
		{CommitEvent{Cycle: 99, PC: 0x1000, DestArch: 1, DestPhys: 0}, true},
		{CommitEvent{Cycle: 100, PC: 0x1000 + 4*(sideBase-1), DestArch: 2, DestPhys: 0}, false},
		{CommitEvent{Cycle: 100, PC: 0x1000 + 4*sideBase, DestArch: 2, DestPhys: 0}, true},
		{CommitEvent{Cycle: 100, PC: 0x1000 + 4*0xffff, DestArch: 2, DestPhys: 0}, true},
		{CommitEvent{Cycle: 100, PC: 0x1000 - 4, DestArch: 2, DestPhys: 0}, true},
		{CommitEvent{Cycle: 100, PC: 0x1002, DestArch: 2, DestPhys: 0}, true},
		{CommitEvent{Cycle: 100, PC: 0x1004, DestArch: NoDest, DestPhys: 0xfe}, false},
		{CommitEvent{Cycle: 100, PC: 0x1004, DestArch: NoDest, DestPhys: 0xff}, true},
		{CommitEvent{Cycle: 100, PC: 0x1004, DestArch: NoDest, DestPhys: 0xfffe}, true},
		{CommitEvent{Cycle: 100, PC: 0x1004, DestArch: NoDest, DestPhys: 0xffff}, false},
		{CommitEvent{Cycle: 100, PC: 0x1000, DestArch: 2, DestPhys: 0}, true},         // not the base PC's destination
		{CommitEvent{Cycle: 100, PC: 0x1004, DestArch: 1, DestPhys: 0}, true},         // nor this one's
		{CommitEvent{Cycle: 100, PC: 0x1008, DestArch: unlearned, DestPhys: 0}, true}, // no PC's destination
		{CommitEvent{Cycle: 100, PC: 0x1008, DestArch: 3, DestPhys: 0}, false},
		{CommitEvent{Cycle: 100, PC: 0x1000, DestArch: 1, DestPhys: 0}, false},
	}
	tr := traceOf(first)
	var side []CommitEvent
	for _, c := range cases {
		tr.Append(c.ev)
		if c.side {
			side = append(side, c.ev)
		}
	}
	if !slices.Equal(tr.chunks[0].side, side) {
		t.Errorf("side table holds %+v, want %+v", tr.chunks[0].side, side)
	}
	for i, c := range cases {
		if ev := tr.At(i + 1); ev != c.ev {
			t.Errorf("event %d is %+v, want %+v", i+1, ev, c.ev)
		}
	}
}

func TestCommitEventsCorruptLengthFails(t *testing.T) {
	var w binio.Writer
	w.Uvarint(1 << 40)
	r := binio.NewReader(w.Bytes())
	if got := DecodeCommitEvents(r); got.Len() != 0 || r.Err() == nil {
		t.Fatalf("corrupt trace length accepted: %d events, err %v", got.Len(), r.Err())
	}
}
