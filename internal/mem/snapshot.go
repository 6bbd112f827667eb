package mem

// Snapshot and restore for the memory hierarchy, the cache/memory half
// of the machine checkpoints used by the injection engine. Both halves
// are copy-on-write, so K checkpoints of one run cost what changed
// between them, not K copies of the hierarchy:
//
//   - a cache snapshot is a table of immutable fixed-size line chunks.
//     The live cache keeps flat arrays for the hot path plus the list of
//     lines touched since its base — the snapshot it was last restored
//     from or captured as — so Snapshot copies only the chunks holding a
//     touched line and aliases every other chunk of the base. Lines no
//     run ever touched all alias one all-zero chunk;
//
//   - a physical memory snapshot aliases the live page arrays, and the
//     live memory clones a page on the first store after the snapshot.
//
// Ownership of shared chunks and pages: whoever can reach one may read
// it, nobody writes it after the snapshot that created it returns, and
// the garbage collector frees it when the last snapshot and the last
// cache based on it are gone. There is no pool and no reference count,
// so releasing one snapshot cannot disturb another that shares with it.
//
// Restore exploits the sharing. Chunks whose pointers are identical in
// the base and the target hold identical bytes, so only the touched
// lines and the chunks whose pointers differ are copied; restoring the
// base itself — the shape of an injection campaign, where every faulty
// run of a batch rewinds to one checkpoint — copies the touched lines
// alone. Which path runs can never change the outcome: each leaves the
// cache bit-identical to the snapshot.
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

// chunkLines is the copy-on-write granule of a cache snapshot, in
// lines. With 64-byte lines a chunk is 5.1 KiB: small enough that the
// few lines a checkpoint interval touches do not drag much clean state
// along, large enough that the chunk table of a 2 MiB L2 is 4 KiB.
const (
	chunkShift = 6
	chunkLines = 1 << chunkShift
)

// cacheChunk is the complete state of chunkLines consecutive lines. It
// is immutable from the moment a CacheState referencing it is returned.
// A cache whose line count is not a multiple of chunkLines leaves the
// tail of its last chunk zero.
type cacheChunk struct {
	tags  [chunkLines]uint64
	lru   [chunkLines]uint64
	valid [chunkLines]uint8
	dirty [chunkLines]uint8
	data  []byte // chunkLines*LineSize bytes
}

func (ch *cacheChunk) equal(o *cacheChunk) bool {
	return ch == o || ch.tags == o.tags && ch.lru == o.lru &&
		ch.valid == o.valid && ch.dirty == o.dirty && bytes.Equal(ch.data, o.data)
}

// zeroChunks interns the all-zero chunk per line size. Every cache
// starts out based on it, so the lines a benchmark never reaches cost
// nothing per snapshot, and restoring into a new machine — or from a
// decoded stream — skips them by pointer identity like any other
// shared chunk.
var zeroChunks sync.Map // line size (int) -> *cacheChunk

func zeroChunk(lineSize int) *cacheChunk {
	if ch, ok := zeroChunks.Load(lineSize); ok {
		return ch.(*cacheChunk)
	}
	ch, _ := zeroChunks.LoadOrStore(lineSize, &cacheChunk{data: make([]byte, chunkLines*lineSize)})
	return ch.(*cacheChunk)
}

// CacheState is a point-in-time image of one cache: the LRU clock, the
// event counters, and a chunk table covering every line. Chunks are
// shared between the snapshots of one run (and with the caches based on
// them) and never written, so a CacheState may be restored concurrently
// into many caches.
type CacheState struct {
	Clock uint64
	Stats CacheStats

	lines    int // line count of the cache this is a state of
	lineSize int
	ways     int // lines per set; set i is lines [i*ways, (i+1)*ways)
	chunks   []*cacheChunk
}

func chunkCount(lines int) int { return (lines + chunkLines - 1) >> chunkShift }

// zeroCacheState is the state of a newly built cache.
func zeroCacheState(lines, lineSize, ways int) *CacheState {
	s := &CacheState{lines: lines, lineSize: lineSize, ways: ways, chunks: make([]*cacheChunk, chunkCount(lines))}
	zero := zeroChunk(lineSize)
	for k := range s.chunks {
		s.chunks[k] = zero
	}
	return s
}

// chunkSpan returns the live lines [first, first+n) chunk k covers.
func (c *Cache) chunkSpan(k int) (first, n int) {
	first = k << chunkShift
	return first, min(chunkLines, len(c.tags)-first)
}

// captureChunk copies the live lines of chunk k into a new chunk.
func (c *Cache) captureChunk(k int) *cacheChunk {
	first, n := c.chunkSpan(k)
	ls := c.cfg.LineSize
	ch := &cacheChunk{data: make([]byte, chunkLines*ls)}
	copy(ch.tags[:], c.tags[first:first+n])
	copy(ch.lru[:], c.lru[first:first+n])
	copy(ch.valid[:], c.valid[first:first+n])
	copy(ch.dirty[:], c.dirty[first:first+n])
	copy(ch.data, c.data[first*ls:(first+n)*ls])
	return ch
}

// loadChunk copies ch over the live lines of chunk k.
func (c *Cache) loadChunk(k int, ch *cacheChunk) {
	first, n := c.chunkSpan(k)
	ls := c.cfg.LineSize
	copy(c.tags[first:first+n], ch.tags[:])
	copy(c.lru[first:first+n], ch.lru[:])
	copy(c.valid[first:first+n], ch.valid[:])
	copy(c.dirty[first:first+n], ch.dirty[:])
	copy(c.data[first*ls:(first+n)*ls], ch.data)
}

// Snapshot captures the cache's complete state. Only the chunks holding
// a line touched since the base are copied; the rest of the table
// aliases the base's chunks. The new snapshot becomes the base.
func (c *Cache) Snapshot() *CacheState {
	s := &CacheState{
		Clock:    c.clock,
		Stats:    c.Stats,
		lines:    len(c.tags),
		lineSize: c.cfg.LineSize,
		ways:     c.cfg.Ways,
		chunks:   slices.Clone(c.base.chunks),
	}
	for _, line := range c.touched {
		if c.touchedMark[line] == markClean {
			continue // an earlier touched line already captured this chunk
		}
		k := int(line) >> chunkShift
		s.chunks[k] = c.captureChunk(k)
		first, n := c.chunkSpan(k)
		clear(c.touchedMark[first : first+n])
	}
	c.touched = c.touched[:0]
	c.base = s
	return s
}

// Restore overwrites the cache's state with the snapshot's, reusing the
// cache's backing arrays, and makes the snapshot the base. The live
// arrays equal the old base outside the touched lines, and chunks the
// two snapshots share are identical, so the copy is the chunks whose
// pointers differ plus the touched lines — for the base itself, the
// touched lines alone.
func (c *Cache) Restore(s *CacheState) {
	if s.lines != len(c.tags) || s.lineSize != c.cfg.LineSize || s.ways != c.cfg.Ways {
		simerr.Assertf("mem: cache restore from a differently configured cache snapshot: %d lines of %d bytes in %d ways, cache has %d of %d in %d",
			s.lines, s.lineSize, s.ways, len(c.tags), c.cfg.LineSize, c.cfg.Ways)
	}
	c.clock = s.Clock
	c.Stats = s.Stats
	ls := c.cfg.LineSize
	if old := c.base; old != s {
		for k, ch := range s.chunks {
			if ch != old.chunks[k] {
				c.loadChunk(k, ch)
			}
		}
		c.base = s
	}
	for _, line := range c.touched {
		ch, i := s.chunks[line>>chunkShift], line&(chunkLines-1)
		if c.touchedMark[line] == markLine {
			c.tags[line] = ch.tags[i]
			c.valid[line] = ch.valid[i]
			c.dirty[line] = ch.dirty[i]
			copy(c.data[int(line)*ls:(int(line)+1)*ls], ch.data[int(i)*ls:])
		}
		c.lru[line] = ch.lru[i] // all a read hit moves
		c.touchedMark[line] = markClean
	}
	c.touched = c.touched[:0]
}

// Clock returns the LRU clock, the cheap per-cache component of the
// machine-level convergence prefilter hash. The clock advances on every
// access, so two executions that touched the caches differently almost
// always disagree on it; it is part of the StateEquals relation (LRU
// state steers future victim selection), which keeps the hash a sound
// subset of the exact comparison.
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
// Outside the touched lines the live cache is bit-identical to its
// base, so it can differ from s only on a touched line or inside a
// chunk where the base and s hold different pointers; a chunk both
// tables share needs no look at all. That is what keeps a comparison
// against any rung of a dense checkpoint ladder proportional to what
// ran in between, with nothing memoized per pair.
func (c *Cache) StateEquals(s *CacheState) bool {
	eq, _ := c.stateEquals(s)
	return eq
}

// stateEquals is StateEquals plus the number of whole chunks it had to
// compare, which tests pin to the number of differing chunk pointers.
func (c *Cache) stateEquals(s *CacheState) (eq bool, chunksCompared int) {
	if c.clock != s.Clock || s.lines != len(c.tags) || s.lineSize != c.cfg.LineSize {
		return false, 0
	}
	for _, line := range c.touched {
		if !c.liveLineEquals(s.chunks[line>>chunkShift], int(line)) {
			return false, 0
		}
	}
	for k, ch := range s.chunks {
		if ch == c.base.chunks[k] {
			continue
		}
		chunksCompared++
		if !c.liveChunkEquals(ch, k) {
			return false, chunksCompared
		}
	}
	return true, chunksCompared
}

// liveChunkEquals compares the live lines of chunk k against ch. Equal
// bytes are sufficient, so the per-line dead-state walk only runs when
// some byte differs.
func (c *Cache) liveChunkEquals(ch *cacheChunk, k int) bool {
	first, n := c.chunkSpan(k)
	ls := c.cfg.LineSize
	if slices.Equal(c.valid[first:first+n], ch.valid[:n]) && slices.Equal(c.dirty[first:first+n], ch.dirty[:n]) &&
		slices.Equal(c.tags[first:first+n], ch.tags[:n]) && slices.Equal(c.lru[first:first+n], ch.lru[:n]) &&
		bytes.Equal(c.data[first*ls:(first+n)*ls], ch.data[:n*ls]) {
		return true
	}
	for line := first; line < first+n; line++ {
		if !c.liveLineEquals(ch, line) {
			return false
		}
	}
	return true
}

// liveLineEquals is the per-line behavioral comparison of the live
// cache against the chunk holding that line in a snapshot: invalid
// lines compare only the valid bit (the rest is dead state, see
// StateEquals), valid lines in full.
func (c *Cache) liveLineEquals(ch *cacheChunk, line int) bool {
	i := line & (chunkLines - 1)
	if c.valid[line] != ch.valid[i] {
		return false
	}
	if c.valid[line] == 0 {
		return true
	}
	if c.tags[line] != ch.tags[i] || c.dirty[line] != ch.dirty[i] || c.lru[line] != ch.lru[i] {
		return false
	}
	ls := c.cfg.LineSize
	return bytes.Equal(c.data[line*ls:(line+1)*ls], ch.data[i*ls:(i+1)*ls])
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
			f.bytes += int(unsafe.Sizeof(*ch)) + len(ch.data)
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
