package machine

// Binary serialization of full-machine checkpoints (Snap) for the
// prep-artifact cache: a warm cache hit reconstructs a checkpoint
// stream from bytes instead of re-simulating the golden run. The
// snapshots of one sequence are encoded through one mem.Encoder and
// decoded through one mem.Decoder, which carry the cache chunks and
// memory pages the snapshots share; decoded checkpoints share them the
// same way and obey the same ownership and Release rules as recorded
// ones.

import (
	"fmt"

	"sevsim/internal/binio"
	"sevsim/internal/cpu"
	"sevsim/internal/mem"
)

// EncodeTo appends the snapshot's complete state to w.
func (s *Snap) EncodeTo(w *binio.Writer, enc *mem.Encoder) {
	w.U64(s.Cycle)
	s.Core.EncodeTo(w)
	s.CacheImages.EncodeTo(w, enc)
	s.Mem.EncodeTo(w, enc)
}

// EncodeTo appends the three cache images to w.
func (c CacheImages) EncodeTo(w *binio.Writer, enc *mem.Encoder) {
	c.L1I.EncodeTo(w, enc)
	c.L1D.EncodeTo(w, enc)
	c.L2.EncodeTo(w, enc)
}

// DecodeCacheImages reads cache images written by CacheImages.EncodeTo,
// validating each against its cache's configuration in cfg.
func DecodeCacheImages(r *binio.Reader, cfg Config, dec *mem.Decoder) (CacheImages, error) {
	var c CacheImages
	for _, lvl := range []struct {
		dst **mem.CacheState
		cfg mem.CacheConfig
	}{{&c.L1I, cfg.L1I}, {&c.L1D, cfg.L1D}, {&c.L2, cfg.L2}} {
		var err error
		if *lvl.dst, err = mem.DecodeCacheState(r, lvl.cfg, dec); err != nil {
			return CacheImages{}, fmt.Errorf("%s: %w", lvl.cfg.Name, err)
		}
	}
	return c, nil
}

// EncodeTo appends the run result to w; a cached golden result lets a
// warm prep skip the golden simulation.
func (res *Result) EncodeTo(w *binio.Writer) {
	w.U8(uint8(res.Outcome))
	w.String(res.Reason)
	w.U64(res.Cycles)
	w.U64s(res.Output)
	w.Fixed(&res.Stats)
	for _, cs := range []*mem.CacheStats{&res.L1I, &res.L1D, &res.L2} {
		w.Fixed(cs)
	}
	w.Bool(res.Unexpected)
}

// DecodeResult reads a result written by Result.EncodeTo.
func DecodeResult(r *binio.Reader) (Result, error) {
	var res Result
	o := r.U8()
	if o > uint8(OutcomeAssert) {
		r.Fail(fmt.Errorf("machine: decode result: outcome %d out of range", o))
		return Result{}, r.Err()
	}
	res.Outcome = Outcome(o)
	res.Reason = r.String()
	res.Cycles = r.U64()
	res.Output = r.U64sInto(nil)
	r.Fixed(&res.Stats)
	for _, cs := range []*mem.CacheStats{&res.L1I, &res.L1D, &res.L2} {
		r.Fixed(cs)
	}
	res.Unexpected = r.Bool()
	if err := r.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// DecodeSnap reads one Snap written by EncodeTo, validating every
// component against cfg — the machine configuration the snapshot was
// captured under. The caller owns the result and must Release it.
func DecodeSnap(r *binio.Reader, cfg Config, dec *mem.Decoder) (*Snap, error) {
	s := &Snap{}
	s.Cycle = r.U64()
	var err error
	if s.Core, err = cpu.DecodeCoreState(r, &cfg.CPU); err != nil {
		return nil, fmt.Errorf("machine: decode snap core: %w", err)
	}
	if s.CacheImages, err = DecodeCacheImages(r, cfg, dec); err != nil {
		s.Release()
		return nil, fmt.Errorf("machine: decode snap %w", err)
	}
	if s.Mem, err = mem.DecodeMemoryState(r, dec); err != nil {
		s.Release()
		return nil, fmt.Errorf("machine: decode snap memory: %w", err)
	}
	return s, nil
}
