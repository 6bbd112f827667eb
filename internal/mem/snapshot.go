package mem

// Snapshot and restore for the memory hierarchy, the cache/memory half
// of the machine checkpoints used by the injection engine. Both halves
// are copy-on-write, so K checkpoints of one run cost what changed
// between them, not K copies of the hierarchy:
//
//   - a cache's live state is a table of fixed-size line chunks, and a
//     cache snapshot is a copy of that table. The live cache clones a
//     chunk on the first write after the snapshot, restore or
//     construction that handed it over, so a snapshot holds new chunks
//     exactly where lines were written since the previous one and
//     shares every other chunk. Lines no run ever reached all alias one
//     all-zero chunk;
//
//   - a physical memory snapshot aliases the live page arrays, and the
//     live memory clones a page on the first store after the snapshot.
//
// Ownership of shared chunks and pages: whoever can reach one may read
// it, nobody writes it once it is shared, and the garbage collector
// frees it when the last snapshot and the last cache or memory naming
// it are gone. There is no pool and no reference count, so releasing
// one snapshot cannot disturb another that shares with it, and many
// caches may restore one snapshot at once.
//
// Restore is a copy of the table and StateEquals exploits the sharing:
// chunks whose pointers are identical in the live cache and the
// snapshot hold identical bytes, so only the chunks whose pointers
// differ are compared — the ones written since the restore, plus those
// in which the restored snapshot and the compared one differ.
//
// Like the core layer (internal/cpu/snapshot.go), each structure offers
// a strict Equal on the snapshot (bit-for-bit, for round-trip tests)
// and a behavioral StateEquals on the live structure (skips dead state,
// for the early-convergence Masked exit).

import (
	"bytes"
	"slices"
	"sync"
	"unsafe"

	"sevsim/internal/simerr"
)

// chunkLines is the copy-on-write granule of a cache, in lines. With
// 64-byte lines a chunk is 5.1 KiB: small enough that the few lines a
// checkpoint interval writes do not drag much clean state along, large
// enough that the chunk table of a 2 MiB L2 is 4 KiB. Every 2-, 8- and
// 16-way set lies inside one chunk.
const (
	chunkShift = 6
	chunkLines = 1 << chunkShift
)

// cacheChunk is the complete state of chunkLines consecutive lines. A
// chunk is written only by the one cache that owns it, and never again
// once a snapshot or a second cache names it; the same holds for its
// data block, which a chunk cloned for a metadata write shares with the
// chunk it was cloned from. A cache whose line count is not a multiple
// of chunkLines leaves the tail of its last chunk zero.
type cacheChunk struct {
	tags  [chunkLines]uint64
	lru   [chunkLines]uint64
	valid [chunkLines]uint8
	dirty [chunkLines]uint8
	data  []byte // chunkLines*LineSize bytes
}

// clone returns a copy of ch that shares its data block.
func (ch *cacheChunk) clone() *cacheChunk {
	cp := *ch
	return &cp
}

// size is the memory the chunk holds, in bytes, its data block counted
// in full even where another chunk shares it.
func (ch *cacheChunk) size() int { return int(unsafe.Sizeof(*ch)) + len(ch.data) }

func (ch *cacheChunk) equal(o *cacheChunk) bool {
	return ch == o || ch.tags == o.tags && ch.lru == o.lru &&
		ch.valid == o.valid && ch.dirty == o.dirty && bytes.Equal(ch.data, o.data)
}

// stateEquals compares two chunks behaviorally: invalid lines compare
// only the valid bit (the rest is dead state, see Cache.StateEquals),
// valid lines in full. Lines past the end of the cache are invalid in
// both. Equal bytes are sufficient, so the per-line walk only runs when
// some byte differs.
func (ch *cacheChunk) stateEquals(o *cacheChunk, lineSize int) bool {
	if ch.equal(o) {
		return true
	}
	for i := range chunkLines {
		if ch.valid[i] != o.valid[i] {
			return false
		}
		if ch.valid[i] == 0 {
			continue
		}
		if ch.tags[i] != o.tags[i] || ch.dirty[i] != o.dirty[i] || ch.lru[i] != o.lru[i] ||
			!bytes.Equal(ch.data[i*lineSize:(i+1)*lineSize], o.data[i*lineSize:(i+1)*lineSize]) {
			return false
		}
	}
	return true
}

// zeroChunks interns the all-zero chunk per line size. Every new cache
// names it for every chunk, so the lines a benchmark never reaches cost
// one pointer per chunk in the cache and in each snapshot, and a
// comparison skips them by pointer identity like any other shared
// chunk.
var zeroChunks sync.Map // line size (int) -> *cacheChunk

func zeroChunk(lineSize int) *cacheChunk {
	if ch, ok := zeroChunks.Load(lineSize); ok {
		return ch.(*cacheChunk)
	}
	ch, _ := zeroChunks.LoadOrStore(lineSize, &cacheChunk{data: make([]byte, chunkLines*lineSize)})
	return ch.(*cacheChunk)
}

// CacheState is a point-in-time image of one cache: the LRU clock, the
// event counters, and a chunk table covering every line. Its chunks are
// shared with the caches it was taken from or restored into and never
// written, so a CacheState may be restored concurrently into many
// caches.
type CacheState struct {
	Clock uint64
	Stats CacheStats

	lines    int // line count of the cache this is a state of
	lineSize int
	ways     int // lines per set; set i is lines [i*ways, (i+1)*ways)
	chunks   []*cacheChunk
}

func chunkCount(lines int) int { return (lines + chunkLines - 1) >> chunkShift }

// Snapshot captures the cache's complete state: a copy of the chunk
// table, every chunk of which is shared from now on. It copies no
// chunk.
func (c *Cache) Snapshot() *CacheState {
	clear(c.owned)
	return &CacheState{
		Clock:    c.clock,
		Stats:    c.Stats,
		lines:    c.lines(),
		lineSize: c.cfg.LineSize,
		ways:     c.cfg.Ways,
		chunks:   slices.Clone(c.chunks),
	}
}

// Restore overwrites the cache's state with the snapshot's: the
// snapshot's chunk table, every chunk shared.
func (c *Cache) Restore(s *CacheState) {
	if s.lines != c.lines() || s.lineSize != c.cfg.LineSize || s.ways != c.cfg.Ways {
		simerr.Assertf("mem: cache restore from a differently configured cache snapshot: %d lines of %d bytes in %d ways, cache has %d of %d in %d",
			s.lines, s.lineSize, s.ways, c.lines(), c.cfg.LineSize, c.cfg.Ways)
	}
	c.clock = s.Clock
	c.Stats = s.Stats
	copy(c.chunks, s.chunks)
	clear(c.owned)
}

// Clock returns the LRU clock, which machine.Converged compares against
// the snapshot's before any structure. The clock advances on every
// access, so two executions that touched the caches differently almost
// always disagree on it; it is part of the StateEquals relation (LRU
// state steers future victim selection), so the early reject is sound.
func (c *Cache) Clock() uint64 { return c.clock }

// StateEquals reports whether the cache's behavioral state equals the
// snapshot's. Invalid lines compare only their valid bit: fill
// overwrites tag, dirty, and the whole data range before the line can
// be observed, and touch assigns the line a fresh LRU stamp before the
// next victim scan can read it, so everything but the valid bit of an
// invalid line is dead state. Valid lines compare in full, and so does
// the LRU clock (it steers future victim selection). Stats are
// excluded: they never feed back into execution or classification, and
// a behaviorally converged run may carry different event counts from
// its pre-convergence excursion.
//
// A chunk the live table and s share needs no look at all, so only the
// chunks written since the last restore and those in which the restored
// snapshot and s hold different pointers are compared. That is what
// keeps a comparison against any rung of a dense checkpoint ladder
// proportional to what ran in between, with nothing memoized per pair.
func (c *Cache) StateEquals(s *CacheState) bool {
	eq, _ := c.stateEquals(s)
	return eq
}

// stateEquals is StateEquals plus the number of chunks it had to
// compare, which tests pin to the number of differing chunk pointers.
func (c *Cache) stateEquals(s *CacheState) (eq bool, chunksCompared int) {
	if c.clock != s.Clock || s.lines != c.lines() || s.lineSize != c.cfg.LineSize {
		return false, 0
	}
	for k, ch := range s.chunks {
		if ch == c.chunks[k] {
			continue
		}
		chunksCompared++
		if !c.chunks[k].stateEquals(ch, c.cfg.LineSize) {
			return false, chunksCompared
		}
	}
	return true, chunksCompared
}

// Equal is the strict comparison of two cache snapshots, including dead
// state: every bit of every chunk, the clock, and the counters.
func (s *CacheState) Equal(o *CacheState) bool {
	return s.Clock == o.Clock && s.Stats == o.Stats && s.lines == o.lines && s.lineSize == o.lineSize && s.ways == o.ways &&
		slices.EqualFunc(s.chunks, o.chunks, (*cacheChunk).equal)
}

// Valid reports whether line is resident in s. A line outside the cache
// is not.
func (s *CacheState) Valid(line int) bool {
	return line >= 0 && line < s.lines && s.chunks[line>>chunkShift].valid[line&(chunkLines-1)] != 0
}

// QuietSince reports whether the set holding line was not looked up
// between the moment the cache's LRU clock read k and the moment s was
// taken, s being an image of the same run at or after that moment: no
// line of the set carries a stamp above k. Read, Write, ReadLine and
// WriteLine are the only code that reads a set's valid bits, tags or
// data; each ends by writing ++clock into one line of the set it looked
// up, and a stamp is only ever overwritten by a later one, so a lookup
// after clock k leaves a stamp above k in its set for good — also when
// snapshots taken in between were dropped, and in a decoded image,
// stamps being encoded as they are. A quiet set was neither hit, filled,
// written nor evicted from, and none of its lines was written back:
// a victim's write-back happens inside a lookup of its own set. A line
// outside the cache is in no quiet set.
func (s *CacheState) QuietSince(k uint64, line int) bool {
	if line < 0 || line >= s.lines {
		return false
	}
	first := line - line%s.ways
	for l := first; l < first+s.ways; l++ {
		if s.chunks[l>>chunkShift].lru[l&(chunkLines-1)] > k {
			return false
		}
	}
	return true
}

// Footprint sums the memory a set of snapshots holds, counting every
// chunk and page once however many snapshots share it. The zero value
// is ready to use.
type Footprint struct {
	chunks map[*cacheChunk]struct{}
	pages  map[*[PageSize]byte]struct{}
	bytes  int
}

// AddCache adds a cache snapshot: its chunk table plus the chunks not
// already counted.
func (f *Footprint) AddCache(s *CacheState) {
	if f.chunks == nil {
		f.chunks = make(map[*cacheChunk]struct{})
	}
	f.bytes += 8 * len(s.chunks)
	for _, ch := range s.chunks {
		if _, seen := f.chunks[ch]; !seen {
			f.chunks[ch] = struct{}{}
			f.bytes += ch.size()
		}
	}
}

// AddMemory adds a memory snapshot: its page table plus the pages not
// already counted.
func (f *Footprint) AddMemory(s *MemoryState) {
	if f.pages == nil {
		f.pages = make(map[*[PageSize]byte]struct{})
	}
	f.bytes += 16 * len(s.pages)
	for _, p := range s.pages { //lint:ordered sums distinct pages into a set; order cannot reach the total
		if _, seen := f.pages[p]; !seen {
			f.pages[p] = struct{}{}
			f.bytes += PageSize
		}
	}
}

// Bytes returns the total so far.
func (f *Footprint) Bytes() int { return f.bytes }

// MemoryState is a copy-on-write snapshot of physical memory: it
// aliases the live memory's page arrays at snapshot time. The arrays
// are immutable from then on — the live memory clones any aliased page
// before writing to it (writablePage) and Restore only copies pointers
// — so one snapshot can be shared read-only across concurrent workers.
// MemoryState is not pooled: its cost is the map, which Restore reuses
// on the live-memory side already, and pooling shared COW pages would
// need reference counting for no measured gain.
type MemoryState struct {
	pages map[uint64]*[PageSize]byte
}

// Snapshot captures memory as a COW snapshot. Cost is one map copy;
// page contents are shared with the live memory until it next writes.
func (m *Memory) Snapshot() *MemoryState {
	s := &MemoryState{pages: make(map[uint64]*[PageSize]byte, len(m.pages))}
	for k, p := range m.pages { //lint:ordered builds a map and marks a set; order cannot reach any result
		s.pages[k] = p
		m.shared[k] = struct{}{}
	}
	return s
}

// Restore points the memory at the snapshot's pages. Every restored
// page is marked shared, so the first post-restore store to it clones
// it and the snapshot stays intact for the next restore. The memory's
// existing maps are reused to avoid per-injection allocation.
func (m *Memory) Restore(s *MemoryState) {
	clear(m.pages)
	clear(m.shared)
	for k, p := range s.pages { //lint:ordered rebuilds a map and marks a set; order cannot reach any result
		m.pages[k] = p
		m.shared[k] = struct{}{}
	}
}

// StateEquals reports whether memory contents equal the snapshot's,
// with an absent page equivalent to an all-zero page (the only way
// either is observed). The common case after a checkpoint restore is
// that almost every live page still aliases the snapshot's array, so
// the pointer fast path skips nearly all byte comparison.
func (m *Memory) StateEquals(s *MemoryState) bool {
	for k, p := range m.pages { //lint:ordered all-pages-must-match check; order cannot reach the boolean result
		sp := s.pages[k]
		if p == sp {
			continue
		}
		if !pageEqual(p, sp) {
			return false
		}
	}
	for k, sp := range s.pages { //lint:ordered all-pages-must-match check; order cannot reach the boolean result
		if _, ok := m.pages[k]; ok {
			continue
		}
		if !pageEqual(nil, sp) {
			return false
		}
	}
	return true
}

// Equal is the strict comparison of two memory snapshots, with absent
// pages equivalent to all-zero pages.
func (s *MemoryState) Equal(o *MemoryState) bool {
	for k, p := range s.pages { //lint:ordered all-pages-must-match check; order cannot reach the boolean result
		if op := o.pages[k]; p != op && !pageEqual(p, op) {
			return false
		}
	}
	for k, op := range o.pages { //lint:ordered all-pages-must-match check; order cannot reach the boolean result
		if _, ok := s.pages[k]; !ok && !pageEqual(nil, op) {
			return false
		}
	}
	return true
}

func pageEqual(a, b *[PageSize]byte) bool {
	if a == nil && b == nil {
		return true
	}
	if a == nil {
		a, b = b, a
	}
	if b == nil {
		for _, v := range a {
			if v != 0 {
				return false
			}
		}
		return true
	}
	return *a == *b
}
