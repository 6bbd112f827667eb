package mem

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"sevsim/internal/simerr"
)

// Backend is the next-lower level of the hierarchy: another cache or the
// physical memory. All transfers are whole naturally aligned lines.
type Backend interface {
	ReadLine(addr uint64, dst []byte) int
	WriteLine(addr uint64, src []byte) int
}

// CacheConfig describes one cache's geometry and timing.
type CacheConfig struct {
	Name       string
	Size       int // total data capacity in bytes
	Ways       int
	LineSize   int
	HitLatency int
	AddrBits   int  // physical address width; determines tag width
	ReadOnly   bool // instruction cache: stores are rejected
}

// CacheStats counts cache events for one simulation.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Evictions  uint64
}

// Cache is a set-associative write-back write-allocate cache with
// authoritative tag and data arrays.
//
// Line state lives in a table of fixed-size line chunks (snapshot.go),
// the same table a CacheState holds: line l is entry l&(chunkLines-1)
// of chunk l>>chunkShift, lines numbered set*ways + way, row-major by
// set. A chunk is either owned by this cache alone or shared — with the
// snapshots it was captured into or restored from, with other caches,
// or, for lines no run has reached, the interned all-zero chunk. Shared
// chunks are read-only: the first write to one (a fill, a store, a
// write-back arriving from above, a lookup's LRU stamp, a fault flip)
// clones it, as Memory clones a shared page. So a new cache holds one
// pointer per chunk and nothing else, a snapshot is a copy of the
// table, and a restore is a copy back.
//
// A read hit writes only its line's LRU stamp, and most of what an
// injection's replay does is read hits, so ownership has two steps: a
// write to line metadata clones the chunk and keeps sharing its data
// block, and the first write to line data clones the block too.
type Cache struct {
	// Geometry, derived from the config at construction and immutable
	// after. TestCacheFieldTable (fieldtable_test.go) gives every field
	// a row saying whether Snapshot/Restore carry it and StateEquals
	// compares it, and checks each row by perturbation.
	cfg      CacheConfig
	sets     int
	offBits  int
	setBits  int
	tagWidth int
	lower    Backend

	chunks []*cacheChunk
	owned  []uint8 // per chunk: shared, ownMeta or ownAll
	clock  uint64

	Stats CacheStats
}

// NewCache builds a cache over the given lower level. Geometry values
// must be powers of two.
func NewCache(cfg CacheConfig, lower Backend) *Cache {
	sets := cfg.Size / (cfg.Ways * cfg.LineSize)
	if sets <= 0 || sets&(sets-1) != 0 {
		simerr.Assertf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		simerr.Assertf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize)
	}
	n := chunkCount(cfg.lines())
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		offBits: bits.TrailingZeros(uint(cfg.LineSize)),
		setBits: bits.TrailingZeros(uint(sets)),
		chunks:  make([]*cacheChunk, n),
		owned:   make([]uint8, n),
		lower:   lower,
	}
	c.tagWidth = cfg.AddrBits - c.offBits - c.setBits
	if c.tagWidth <= 0 {
		simerr.Assertf("cache %s: nonpositive tag width", cfg.Name)
	}
	zero := zeroChunk(cfg.LineSize)
	for k := range c.chunks {
		c.chunks[k] = zero
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// TagWidth returns the stored tag width in bits (excluding state bits).
func (c *Cache) TagWidth() int { return c.tagWidth }

// lines is the line count of a cache built from cfg, which snapshots
// and decoded images are checked against.
func (cfg CacheConfig) lines() int { return cfg.Size / (cfg.Ways * cfg.LineSize) * cfg.Ways }

func (c *Cache) lines() int          { return c.cfg.lines() }
func (c *Cache) set(addr uint64) int { return int(addr>>c.offBits) & (c.sets - 1) }
func (c *Cache) tagOf(addr uint64) uint64 {
	return (addr >> (c.offBits + c.setBits)) & ((1 << c.tagWidth) - 1)
}

// at returns the chunk holding a line and the line's index in it, for
// reading.
func (c *Cache) at(line int) (*cacheChunk, int) {
	return c.chunks[line>>chunkShift], line & (chunkLines - 1)
}

// What a cache owns of each chunk in its table.
const (
	shared  uint8 = iota // nothing: the chunk is read-only
	ownMeta              // the chunk, whose data block is still shared
	ownAll               // the chunk and its data block
)

// own is at for writing line metadata (tags, LRU stamps, valid and
// dirty bits): a shared chunk is cloned first.
func (c *Cache) own(line int) (*cacheChunk, int) {
	k := line >> chunkShift
	if c.owned[k] == shared {
		c.chunks[k] = c.chunks[k].clone()
		c.owned[k] = ownMeta
	}
	return c.chunks[k], line & (chunkLines - 1)
}

// ownData is own for writing line data as well.
func (c *Cache) ownData(line int) (*cacheChunk, int) {
	ch, i := c.own(line)
	if k := line >> chunkShift; c.owned[k] != ownAll {
		ch.data = bytes.Clone(ch.data)
		c.owned[k] = ownAll
	}
	return ch, i
}

// lineData returns the data bytes of line i of a chunk.
func (c *Cache) lineData(ch *cacheChunk, i int) []byte {
	return ch.data[i*c.cfg.LineSize : (i+1)*c.cfg.LineSize]
}

// lineAddr reconstructs the base address of a resident line from its set
// index and stored tag. A corrupted tag reconstructs to a different —
// possibly unmapped — address; that is exactly how tag faults escape.
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return tag<<(c.offBits+c.setBits) | uint64(set)<<c.offBits
}

// lookup returns the way index of a hit in the set, or -1. Read inlines
// the path for a set inside one chunk, which is every set of a 2-, 8-
// or 16-way cache; only a set whose way count does not divide
// chunkLines can cross a chunk boundary (a 3-way set over lines 63-65),
// and only such a set takes the per-line path.
func (c *Cache) lookup(set int, tag uint64) int {
	first := set * c.cfg.Ways
	if ch, i := c.at(first); i+c.cfg.Ways <= chunkLines {
		for w, v := range ch.valid[i : i+c.cfg.Ways] {
			if v != 0 && ch.tags[i+w] == tag {
				return w
			}
		}
		return -1
	}
	for w := range c.cfg.Ways {
		if ch, i := c.at(first + w); ch.valid[i] != 0 && ch.tags[i] == tag {
			return w
		}
	}
	return -1
}

// victim picks the replacement way for a set: first invalid way, else
// least-recently used. It loads the chunk of the set's first line and
// moves to the next one only at a chunk boundary.
func (c *Cache) victim(set int) int {
	first := set * c.cfg.Ways
	ch, i := c.at(first)
	best, bestLRU := 0, ^uint64(0)
	for w := 0; w < c.cfg.Ways; w, i = w+1, i+1 {
		if i == chunkLines {
			ch, i = c.at(first + w)
		}
		if ch.valid[i] == 0 {
			return w
		}
		if ch.lru[i] < bestLRU {
			bestLRU = ch.lru[i]
			best = w
		}
	}
	return best
}

// fill ensures the line containing addr is resident and returns its way
// index plus the accumulated miss latency (0 on hit).
func (c *Cache) fill(addr uint64) (way int, lat int) {
	set := c.set(addr)
	tag := c.tagOf(addr)
	if w := c.lookup(set, tag); w >= 0 {
		c.Stats.Hits++
		return w, 0
	}
	return c.miss(addr, set, tag)
}

// miss is the fill slow path: write back and replace the victim, then
// fill the line from the lower level.
func (c *Cache) miss(addr uint64, set int, tag uint64) (way, lat int) {
	c.Stats.Misses++
	w := c.victim(set)
	ch, i := c.ownData(set*c.cfg.Ways + w)
	d := c.lineData(ch, i)
	if ch.valid[i] != 0 {
		c.Stats.Evictions++
		if ch.dirty[i] != 0 {
			c.Stats.Writebacks++
			lat += c.lower.WriteLine(c.lineAddr(set, ch.tags[i]), d)
		}
	}
	lineBase := addr &^ uint64(c.cfg.LineSize-1)
	lat += c.lower.ReadLine(lineBase, d)
	ch.tags[i] = tag
	ch.valid[i] = 1
	ch.dirty[i] = 0
	return w, lat
}

// touch stamps the line a lookup ended on with the advanced LRU clock
// and returns the line. Every lookup of a set ends here (Read inlines
// it), which is what lets CacheState.QuietSince read "this set was not
// looked up" off the stamps.
func (c *Cache) touch(set, way int) (line int) {
	c.clock++
	line = set*c.cfg.Ways + way
	ch, i := c.own(line)
	ch.lru[i] = c.clock
	return line
}

// Read performs a program-level read of size bytes (1, 4, or 8) that
// must not cross a line boundary. It returns the little-endian value and
// the access latency.
//
// This is the hottest call in the simulator (every fetch and every
// load), so the hit path is fused: set, tag, and line index are
// computed once, the lookup is inlined, and the value is extracted
// with a direct little-endian load instead of a bounce buffer. Event
// ordering (hit/miss stats, the LRU clock) matches the generic
// fill+touch path bit for bit.
func (c *Cache) Read(addr uint64, size int) (uint64, int) {
	set := int(addr>>c.offBits) & (c.sets - 1)
	tag := (addr >> (c.offBits + c.setBits)) & ((1 << c.tagWidth) - 1)
	first := set * c.cfg.Ways
	line := -1
	if ch, i := c.at(first); i+c.cfg.Ways <= chunkLines {
		for w, v := range ch.valid[i : i+c.cfg.Ways] {
			if v != 0 && ch.tags[i+w] == tag {
				line = first + w
				break
			}
		}
	} else if w := c.lookup(set, tag); w >= 0 {
		line = first + w
	}
	lat := 0
	if line >= 0 {
		c.Stats.Hits++
	} else {
		var w int
		w, lat = c.miss(addr, set, tag)
		line = first + w
	}
	c.clock++
	ch, i := c.own(line)
	ch.lru[i] = c.clock
	d := ch.data[i*c.cfg.LineSize+(int(addr)&(c.cfg.LineSize-1)):]
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(d[:8]), c.cfg.HitLatency + lat
	case 4:
		return uint64(binary.LittleEndian.Uint32(d[:4])), c.cfg.HitLatency + lat
	case 1:
		return uint64(d[0]), c.cfg.HitLatency + lat
	default:
		var buf [8]byte
		copy(buf[:size], d[:size])
		return binary.LittleEndian.Uint64(buf[:]), c.cfg.HitLatency + lat
	}
}

// Write performs a program-level write of size bytes. Write-allocate:
// the line is filled on a miss, then updated and marked dirty.
func (c *Cache) Write(addr uint64, size int, val uint64) int {
	if c.cfg.ReadOnly {
		simerr.Assertf("cache %s: write to read-only cache at %#x", c.cfg.Name, addr)
	}
	way, lat := c.fill(addr)
	ch, i := c.ownData(c.touch(c.set(addr), way))
	off := int(addr) & (c.cfg.LineSize - 1)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	copy(c.lineData(ch, i)[off:off+size], buf[:size])
	ch.dirty[i] = 1
	return c.cfg.HitLatency + lat
}

// ReadLine implements Backend so a cache can serve as the lower level of
// another cache.
func (c *Cache) ReadLine(addr uint64, dst []byte) int {
	way, lat := c.fill(addr)
	ch, i := c.at(c.touch(c.set(addr), way))
	// The upper cache's line size can be at most ours; a naturally
	// aligned smaller line sits inside one of our lines.
	off := int(addr) & (c.cfg.LineSize - 1)
	if off+len(dst) > c.cfg.LineSize {
		simerr.Assertf("cache %s: line read spans lines at %#x", c.cfg.Name, addr)
	}
	copy(dst, c.lineData(ch, i)[off:off+len(dst)])
	return c.cfg.HitLatency + lat
}

// WriteLine implements Backend for write-backs arriving from above.
func (c *Cache) WriteLine(addr uint64, src []byte) int {
	way, lat := c.fill(addr)
	ch, i := c.ownData(c.touch(c.set(addr), way))
	off := int(addr) & (c.cfg.LineSize - 1)
	if off+len(src) > c.cfg.LineSize {
		simerr.Assertf("cache %s: line write spans lines at %#x", c.cfg.Name, addr)
	}
	copy(c.lineData(ch, i)[off:off+len(src)], src)
	ch.dirty[i] = 1
	return c.cfg.HitLatency + lat
}

// --- Fault-injection surface -------------------------------------------

// DataBitCount returns the number of injectable bits in the data array.
func (c *Cache) DataBitCount() uint64 {
	return uint64(c.lines()) * uint64(c.cfg.LineSize) * 8
}

// TagBitCount returns the number of injectable bits in the tag array.
// Each line contributes its tag plus the valid and dirty state bits,
// mirroring the paper's treatment of cache "tag fields".
func (c *Cache) TagBitCount() uint64 {
	return uint64(c.sets) * uint64(c.cfg.Ways) * uint64(c.tagWidth+2)
}

// DataBitLine returns the line holding a bit of the data array.
func (c *Cache) DataBitLine(bit uint64) int {
	return int(bit / (uint64(c.cfg.LineSize) * 8))
}

// TagBitLine returns the line a bit of the tag array belongs to, and
// whether the bit is that line's valid bit. Index layout per line: tag
// bits first, then valid, then dirty.
func (c *Cache) TagBitLine(bit uint64) (line int, validBit bool) {
	per := uint64(c.tagWidth + 2)
	return int(bit / per), bit%per == uint64(c.tagWidth)
}

// FlipDataBit flips one bit of the data array, addressed by a global bit
// index in [0, DataBitCount): the lines' bytes in line order, each
// line's bits in byte order.
func (c *Cache) FlipDataBit(bit uint64) {
	ch, i := c.ownData(c.DataBitLine(bit))
	c.lineData(ch, i)[bit/8%uint64(c.cfg.LineSize)] ^= 1 << (bit % 8)
}

// FlipTagBit flips one bit of the tag array, addressed by a global bit
// index in [0, TagBitCount), in TagBitLine's layout.
func (c *Cache) FlipTagBit(bit uint64) {
	line, validBit := c.TagBitLine(bit)
	ch, i := c.own(line)
	switch b := bit % uint64(c.tagWidth+2); {
	case validBit:
		ch.valid[i] ^= 1
	case b < uint64(c.tagWidth):
		ch.tags[i] ^= 1 << b
	default:
		ch.dirty[i] ^= 1
	}
}

// LineState exposes one line's metadata for tests.
func (c *Cache) LineState(set, way int) (tag uint64, valid, dirty bool) {
	ch, i := c.at(set*c.cfg.Ways + way)
	return ch.tags[i], ch.valid[i] != 0, ch.dirty[i] != 0
}

// ResidentBytes is what the cache holds on its own: the chunk table,
// the ownership marks and what it owns of its chunks. A shared chunk
// belongs to the snapshots that name it (Footprint counts those) or is
// the interned zero chunk.
func (c *Cache) ResidentBytes() int {
	n := 8*len(c.chunks) + len(c.owned)
	for k, ch := range c.chunks {
		switch c.owned[k] {
		case ownMeta:
			n += ch.size() - len(ch.data)
		case ownAll:
			n += ch.size()
		}
	}
	return n
}
