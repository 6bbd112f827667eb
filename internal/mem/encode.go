package mem

// Binary serialization of the memory-hierarchy snapshot halves of a
// machine checkpoint, for the prep-artifact cache. The snapshots of one
// run share cache chunks and memory pages, and the encoding keeps that
// sharing: an Encoder writes each distinct chunk or page once, where it
// first appears, and a back-reference everywhere else; a Decoder
// rebuilds the same chunk and page pointers, so a decoded stream
// restores and compares as cheaply as a recorded one. It is not as
// small: a read hit clones a chunk's metadata and keeps sharing its
// data block, but the Encoder writes every distinct chunk with its own
// data, so a decoded stream holds one data block per chunk where the
// recorded one shared a block between a chunk and its read-hit clones.
// Stream.ResidentBytes reads the same on both, because Footprint
// counts a shared data block once for every chunk that names it. Chunk
// and page bodies are overwhelmingly zero for the bundled
// benchmarks, so they go through binio's zero-run encoding. Both
// encodings are bit-complete with respect to the strict Equal
// comparisons in snapshot.go.
//
// A reference is a Uvarint: 0 names the all-zero chunk (cache tables
// only), 1..n the n bodies seen so far, n+1 announces that a new body
// follows. Anything larger is corrupt input.

import (
	"fmt"
	"sort"

	"sevsim/internal/binio"
)

// Encoder numbers the chunks and pages of one serialized snapshot
// sequence. The zero value is ready to use.
type Encoder struct {
	chunks map[*cacheChunk]uint64
	pages  map[*[PageSize]byte]uint64
}

// Decoder holds the chunks and pages decoded so far from one
// serialized snapshot sequence. The zero value is ready to use.
type Decoder struct {
	chunks []*cacheChunk
	pages  []*[PageSize]byte
}

// ref writes the reference for p and reports whether its body must
// follow.
func ref[P comparable](w *binio.Writer, seen *map[P]uint64, p P) (isNew bool) {
	id, ok := (*seen)[p]
	if !ok {
		if *seen == nil {
			*seen = make(map[P]uint64)
		}
		id = uint64(len(*seen)) + 1
		(*seen)[p] = id
	}
	w.Uvarint(id)
	return !ok
}

// EncodeTo appends the cache snapshot's complete state to w.
func (s *CacheState) EncodeTo(w *binio.Writer, enc *Encoder) {
	w.U64(s.Clock)
	w.Fixed(&s.Stats)
	w.Uvarint(uint64(len(s.chunks)))
	zero := zeroChunk(s.lineSize)
	for _, ch := range s.chunks {
		if ch == zero {
			w.Uvarint(0)
			continue
		}
		if !ref(w, &enc.chunks, ch) {
			continue
		}
		var valid, dirty uint64
		for i := 0; i < chunkLines; i++ {
			w.Uvarint(ch.tags[i])
			w.Uvarint(ch.lru[i])
			valid |= uint64(ch.valid[i]&1) << i
			dirty |= uint64(ch.dirty[i]&1) << i
		}
		w.U64(valid)
		w.U64(dirty)
		w.RLE(ch.data)
	}
}

// DecodeCacheState reads one CacheState written by EncodeTo. Geometry
// is validated against cfg the same way Cache.Restore validates a live
// restore: the table must cover exactly the configured lines and every
// chunk it names, new or referenced, must hold lines of cfg's size.
func DecodeCacheState(r *binio.Reader, cfg CacheConfig, dec *Decoder) (*CacheState, error) {
	lines := 0
	if cfg.Ways > 0 && cfg.LineSize > 0 {
		lines = cfg.lines()
	}
	s := &CacheState{lines: lines, lineSize: cfg.LineSize, ways: cfg.Ways}
	s.Clock = r.U64()
	r.Fixed(&s.Stats)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if lines <= 0 || n != uint64(chunkCount(lines)) {
		return nil, fmt.Errorf("mem: decode: cache has %d chunks, config %s wants %d (%d lines)", n, cfg.Name, chunkCount(lines), lines)
	}
	s.chunks = make([]*cacheChunk, n)
	dataLen := chunkLines * cfg.LineSize
	for k := range s.chunks {
		id := r.Uvarint()
		var ch *cacheChunk
		switch {
		case r.Err() != nil:
			return nil, r.Err()
		case id == 0:
			ch = zeroChunk(cfg.LineSize)
		case id <= uint64(len(dec.chunks)):
			// The decoder's chunks may come from a cache of another
			// line size; sharing one here would let Restore read past
			// its data.
			if ch = dec.chunks[id-1]; len(ch.data) != dataLen {
				return nil, fmt.Errorf("mem: decode: chunk %d of %s references a chunk of %d data bytes, want %d", k, cfg.Name, len(ch.data), dataLen)
			}
		case id == uint64(len(dec.chunks))+1:
			ch = &cacheChunk{data: make([]byte, dataLen)}
			for i := 0; i < chunkLines; i++ {
				ch.tags[i] = r.Uvarint()
				ch.lru[i] = r.Uvarint()
			}
			valid, dirty := r.U64(), r.U64()
			for i := 0; i < chunkLines; i++ {
				ch.valid[i] = uint8(valid >> i & 1)
				ch.dirty[i] = uint8(dirty >> i & 1)
			}
			r.RLEFill(ch.data)
			if err := r.Err(); err != nil {
				return nil, err
			}
			dec.chunks = append(dec.chunks, ch)
		default:
			return nil, fmt.Errorf("mem: decode: chunk reference %d with only %d chunks defined", id, len(dec.chunks))
		}
		s.chunks[k] = ch
	}
	return s, nil
}

// EncodeTo appends the memory snapshot to w: allocated pages only, in
// ascending page order.
func (s *MemoryState) EncodeTo(w *binio.Writer, enc *Encoder) {
	keys := make([]uint64, 0, len(s.pages))
	for k := range s.pages { //lint:ordered keys are sorted below before any byte is emitted
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.U64(k)
		if page := s.pages[k]; ref(w, &enc.pages, page) {
			w.RLE(page[:])
		}
	}
}

// DecodeMemoryState reads one MemoryState written by EncodeTo. A page
// appearing in several snapshots of the sequence is decoded once and
// shared copy-on-write, like the pages of live-taken snapshots.
func DecodeMemoryState(r *binio.Reader, dec *Decoder) (*MemoryState, error) {
	n := int(r.Uvarint())
	// Each page costs at least its key plus a reference.
	if n < 0 || n > r.Len()/9+1 {
		r.Fail(fmt.Errorf("mem: decode: page count %d exceeds remaining input", n))
		return nil, r.Err()
	}
	s := &MemoryState{pages: make(map[uint64]*[PageSize]byte, n)}
	for i := 0; i < n; i++ {
		k := r.U64()
		id := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if _, dup := s.pages[k]; dup {
			r.Fail(fmt.Errorf("mem: decode: duplicate page %#x", k))
			break
		}
		if id >= 1 && id <= uint64(len(dec.pages)) {
			s.pages[k] = dec.pages[id-1]
			continue
		}
		if id != uint64(len(dec.pages))+1 {
			r.Fail(fmt.Errorf("mem: decode: page reference %d with only %d pages defined", id, len(dec.pages)))
			break
		}
		page := new([PageSize]byte)
		r.RLEFill(page[:])
		if r.Err() != nil {
			break
		}
		dec.pages = append(dec.pages, page)
		s.pages[k] = page
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
