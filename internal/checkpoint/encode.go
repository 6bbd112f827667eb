package checkpoint

// Binary serialization of a checkpoint stream for the prep-artifact
// cache. A decoded stream is functionally identical to a recorded one:
// the snapshots come in ascending cycle order (at whatever spacing they
// were recorded) and share cache chunks and memory pages exactly as
// recorded ones do, and the convergence watches are rebuilt from the
// decoded snapshots exactly the way recording builds them from live
// ones — a watch is just a closure over its snapshot.

import (
	"fmt"

	"sevsim/internal/binio"
	"sevsim/internal/machine"
	"sevsim/internal/mem"
)

// EncodeTo appends the stream's checkpoints to w. Watches carry no
// state of their own (each is a closure over its snapshot), so only
// the snapshots are serialized, and after the last of them the halt
// image — all through one mem.Encoder, so a cache chunk or memory page
// shared by many of them is written once.
func (s *Stream) EncodeTo(w *binio.Writer) {
	var enc mem.Encoder
	w.Uvarint(uint64(len(s.snaps)))
	for _, sn := range s.snaps {
		sn.EncodeTo(w, &enc)
	}
	if s.halt != nil {
		s.halt.EncodeTo(w, &enc)
	}
}

// DecodeStream reads a stream written by EncodeTo, validating each
// snapshot against cfg and rebuilding the convergence watches. The
// caller owns the stream and must Release it.
func DecodeStream(r *binio.Reader, cfg machine.Config) (*Stream, error) {
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A serialized snapshot is far larger than this floor; the bound
	// only rejects a nonsensical count before allocation.
	if n < 0 || n > r.Len()/16+1 {
		r.Fail(fmt.Errorf("checkpoint: decode: snapshot count %d exceeds remaining input", n))
		return nil, r.Err()
	}
	s := &Stream{
		snaps:   make([]*machine.Snap, 0, n),
		watches: make([]machine.Watch, 0, n),
	}
	var dec mem.Decoder
	var lastCycle uint64
	for i := 0; i < n; i++ {
		sn, err := machine.DecodeSnap(r, cfg, &dec)
		if err != nil {
			s.Release()
			return nil, err
		}
		if i > 0 && sn.Cycle <= lastCycle {
			sn.Release()
			s.Release()
			return nil, fmt.Errorf("checkpoint: decode: snapshot cycles not ascending (%d after %d)", sn.Cycle, lastCycle)
		}
		lastCycle = sn.Cycle
		s.add(sn)
	}
	// A stream with rungs ends in its halt image. Input that stops after
	// the last rung (the layout before the image existed) is refused here
	// rather than decoded into a stream that answers fewer injections.
	if n > 0 {
		halt, err := machine.DecodeCacheImages(r, cfg, &dec)
		if err != nil {
			s.Release()
			return nil, fmt.Errorf("checkpoint: decode: halt image %w", err)
		}
		s.halt = &halt
	}
	return s, nil
}
