package checkpoint

import (
	"bytes"
	"strings"
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/machine"
	"sevsim/internal/mem"
)

// TestStreamEncodeRoundTrip records a real stream mid-run on both
// machine configurations — evenly spaced by Record, and on the uneven
// cycles RecordOnline keeps — serializes it, decodes it, and asserts
// every checkpoint, and the halt image after them, is strictly
// bit-for-bit Equal — the property the prep-artifact cache's correctness
// rests on.
func TestStreamEncodeRoundTrip(t *testing.T) {
	type recorded struct {
		name   string
		cfg    machine.Config
		prog   *machine.Program
		golden machine.Result
		stream *Stream
	}
	var cases []recorded
	for _, cfg := range machine.Configs() {
		golden := machine.New(cfg, testProgram()).Run(1 << 30)
		even, _ := Record(machine.New(cfg, testProgram()), 1<<30, Cycles(golden.Cycles, 5))
		long := loopProgram(1500) // a few intervals of the online recorder
		online, res := RecordOnline(machine.New(cfg, long), 1<<30, 5)
		if online.Len() != 5 {
			t.Fatalf("%s: online stream holds %d checkpoints of a %d-cycle run, want 5", cfg.Name, online.Len(), res.Cycles)
		}
		cases = append(cases,
			recorded{cfg.Name + "/even", cfg, testProgram(), golden, even},
			recorded{cfg.Name + "/online", cfg, long, res, online})
	}
	for _, tc := range cases {
		cfg, prog, golden, stream := tc.cfg, tc.prog, tc.golden, tc.stream
		t.Run(tc.name, func(t *testing.T) {
			defer stream.Release()

			var w binio.Writer
			stream.EncodeTo(&w)
			blob := w.Bytes()

			r := binio.NewReader(blob)
			got, err := DecodeStream(r, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Release()
			if r.Len() != 0 {
				t.Fatalf("%d bytes left over after decode", r.Len())
			}
			if got.Len() != stream.Len() {
				t.Fatalf("decoded %d snaps, want %d", got.Len(), stream.Len())
			}
			for i, sn := range stream.Snaps() {
				if !got.Snaps()[i].Equal(sn) {
					t.Fatalf("snap %d not strictly equal after round trip", i)
				}
			}
			if stream.Halt() == nil || got.Halt() == nil || !got.Halt().Equal(*stream.Halt()) {
				t.Fatalf("halt image not strictly equal after round trip: recorded %v, decoded %v", stream.Halt(), got.Halt())
			}

			// The decoded stream shares cache chunks and memory pages
			// exactly as the recorded one does — byte for byte the same
			// footprint — and that is well under what unshared snapshots
			// of the three caches alone would hold.
			if a, b := got.ResidentBytes(), stream.ResidentBytes(); a != b {
				t.Fatalf("decoded stream holds %d bytes, recorded stream %d: sharing was lost or invented", a, b)
			}
			if flat := stream.Len() * (cfg.L1I.Size + cfg.L1D.Size + cfg.L2.Size); stream.ResidentBytes() > flat/4 {
				t.Fatalf("stream holds %d bytes, flat cache copies would hold %d: chunks are not shared", stream.ResidentBytes(), flat)
			}

			// The decoded stream must *work*: restoring its snapshots
			// and running to completion reproduces the golden result,
			// and its rebuilt convergence watches recognize the golden
			// machine at the watch cycle.
			for i, sn := range got.Snaps() {
				m := machine.New(cfg, prog)
				m.Restore(sn)
				if !m.Converged(sn) {
					t.Fatalf("snap %d: restored machine does not converge to its own snapshot", i)
				}
				res := m.Run(1 << 30)
				if res.Outcome != golden.Outcome || res.Cycles != golden.Cycles {
					t.Fatalf("snap %d: run from decoded checkpoint ended %v at cycle %d, want %v at %d",
						i, res.Outcome, res.Cycles, golden.Outcome, golden.Cycles)
				}
			}
		})
	}
}

// TestDecodeStreamRejectsDamage truncates and corrupts a serialized
// stream and asserts DecodeStream returns an error instead of a
// usable-looking stream.
func TestDecodeStreamRejectsDamage(t *testing.T) {
	cfg := machine.Configs()[0]
	golden := machine.New(cfg, testProgram()).Run(1 << 30)
	stream, _ := Record(machine.New(cfg, testProgram()), 1<<30, Cycles(golden.Cycles, 3))
	defer stream.Release()
	var w binio.Writer
	stream.EncodeTo(&w)
	blob := w.Bytes()

	for _, n := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeStream(binio.NewReader(blob[:n]), cfg); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}

	// Decoding against the wrong machine configuration must fail the
	// geometry validation, not fabricate a stream.
	other := machine.Configs()[1]
	if _, err := DecodeStream(binio.NewReader(blob), other); err == nil {
		t.Fatal("decode under mismatched config succeeded")
	}
}

// hostileStream is a serialized stream that breaks the chunk-table
// format in one way a damaged or malicious cache entry can, with a
// fragment of the error DecodeStream must answer it with.
type hostileStream struct {
	name, wantErr string
	blob          []byte
}

// hostileStreams builds the hostile inputs from a real recorded stream
// with unevenly spaced checkpoints, as the online recorder leaves them.
func hostileStreams(cfg machine.Config) []hostileStream {
	golden := machine.New(cfg, testProgram()).Run(1 << 30)
	stream, _ := Record(machine.New(cfg, testProgram()), 1<<30, []uint64{0, golden.Cycles / 7, golden.Cycles - 5})
	defer stream.Release()
	snaps := stream.Snaps()
	encode := func(order []int, sharedEncoder, halt bool) []byte {
		var w binio.Writer
		enc := &mem.Encoder{}
		w.Uvarint(uint64(len(order)))
		for _, i := range order {
			if !sharedEncoder {
				enc = &mem.Encoder{}
			}
			snaps[i].EncodeTo(&w, enc)
		}
		if halt {
			stream.Halt().EncodeTo(&w, enc)
		}
		return w.Bytes()
	}
	valid := encode([]int{0, 1, 2}, true, true)
	var whole binio.Writer
	stream.EncodeTo(&whole)
	if !bytes.Equal(valid, whole.Bytes()) {
		panic("checkpoint: the test's hand-written stream layout is not Stream.EncodeTo's")
	}

	// Offset of the first chunk reference of the first snapshot's L1I
	// table: count, cycle, core state, clock + four counters, chunk count
	// (all single-byte varints at these sizes).
	var core binio.Writer
	snaps[0].Core.EncodeTo(&core)
	firstRef := 1 + 8 + len(core.Bytes()) + 5*8 + 1
	patched := func(at int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[at] = b
		return out
	}
	return []hostileStream{
		{"chunk id out of range", "chunk reference 127", patched(firstRef, 0x7f)},
		{"chunk count too large", "has 127 chunks", patched(firstRef-1, 0x7f)},
		{"truncated table", "truncated input", valid[:firstRef+2]},
		// Every snapshot restarts its numbering at 1, so the decoder
		// takes the second snapshot's first new chunk for a reference
		// to the first's and loses its place.
		{"duplicate chunks", "decode", encode([]int{0, 1, 2}, false, true)},
		{"non-ascending cycles", "cycles not ascending", encode([]int{1, 0, 2}, true, true)},
		{"repeated cycle", "cycles not ascending", encode([]int{0, 1, 1}, true, true)},
		{"snapshot count only", "exceeds remaining input", []byte{3}},
		// The layout before prep bundle version 4: the rungs and nothing
		// after them.
		{"no halt image", "halt image", encode([]int{0, 1, 2}, true, false)},
		{"halt image cut short", "halt image", valid[:len(valid)-3]},
	}
}

// TestDecodeStreamRejectsHostileTables: each hand-built violation of
// the chunk-table format is an error, not a stream.
func TestDecodeStreamRejectsHostileTables(t *testing.T) {
	cfg := machine.Configs()[0]
	for _, h := range hostileStreams(cfg) {
		s, err := DecodeStream(binio.NewReader(h.blob), cfg)
		if err == nil {
			s.Release()
			t.Errorf("%s: decoded without error", h.name)
		} else if !strings.Contains(err.Error(), h.wantErr) {
			t.Errorf("%s: error %q does not mention %q", h.name, err, h.wantErr)
		}
	}
}

// FuzzDecodeStream feeds DecodeStream arbitrary bytes, seeded with a
// valid stream and the hostile ones above. It must return an error or a
// stream that is safe to use: restoring, comparing, measuring and
// running from every decoded checkpoint, and questioning the halt image
// about any line, may end in a modelled outcome, never in a raw panic or
// an out-of-range access.
func FuzzDecodeStream(f *testing.F) {
	cfg := machine.Configs()[0]
	golden := machine.New(cfg, testProgram()).Run(1 << 30)
	stream, _ := Record(machine.New(cfg, testProgram()), 1<<30, Cycles(golden.Cycles, 3))
	var w binio.Writer
	stream.EncodeTo(&w)
	stream.Release()
	f.Add(w.Bytes())
	online, _ := RecordOnline(machine.New(cfg, testProgram()), 1<<30, 4)
	w = binio.Writer{}
	online.EncodeTo(&w)
	online.Release()
	f.Add(w.Bytes())
	for _, h := range hostileStreams(cfg) {
		f.Add(h.blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := DecodeStream(binio.NewReader(blob), cfg)
		if err != nil {
			return
		}
		defer s.Release()
		s.ResidentBytes()
		if halt := s.Halt(); halt != nil {
			for line := -1; line <= cfg.L2.Size/cfg.L2.LineSize; line++ {
				for _, img := range []*mem.CacheState{halt.L1I, halt.L1D, halt.L2} {
					img.Valid(line)
					img.QuietSince(s.Snaps()[0].L2.Clock, line)
				}
			}
		}
		m := machine.New(cfg, testProgram())
		for _, sn := range s.Snaps() {
			m.Restore(sn)
			m.Converged(sn) // may be false: the stored hash and cycle are input too
			m.RunWatched(m.Core.Cycle()+2000, s.WatchesAfter(sn.Cycle))
		}
	})
}
