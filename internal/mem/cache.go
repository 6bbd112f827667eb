package mem

import (
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
// Line state is struct-of-arrays: one flat slice per attribute, indexed
// by line number (set*ways + way, row-major by set), with the data
// array one contiguous slab of lines*LineSize bytes allocated at
// construction, so the hot path indexes flat arrays. Snapshots are
// copy-on-write tables of fixed-size line chunks (snapshot.go): the
// cache tracks which lines it has touched since its last snapshot or
// restore — its base — so a snapshot copies only the touched chunks and
// shares the rest with the base, and a restore copies back only the
// touched lines plus the chunks in which the target differs from the
// base.
type Cache struct {
	// Geometry, derived from the config at construction and immutable
	// after; snapshotcover (cmd/sevlint) checks every other field is
	// carried through Snapshot/Restore.
	cfg      CacheConfig //snapshot:skip immutable configuration, fixed at construction
	sets     int         //snapshot:skip immutable geometry, derived at construction
	offBits  int         //snapshot:skip immutable geometry, derived at construction
	setBits  int         //snapshot:skip immutable geometry, derived at construction
	tagWidth int         //snapshot:skip immutable geometry, derived at construction
	lower    Backend     //snapshot:skip hierarchy wiring; the lower level is snapshotted separately

	tags  []uint64 // per line: stored tag
	lru   []uint64 // per line: last-use timestamp for LRU replacement
	valid []uint8  // per line: 1 when resident
	dirty []uint8  // per line: 1 when modified since fill
	data  []byte   // lines*LineSize contiguous line bytes
	clock uint64

	// Copy-on-write bookkeeping. base is the snapshot this cache was last
	// restored from or last captured as (the all-zero state for a new
	// cache); the live arrays are bit-identical to it on every line not
	// in touched. None of this is checkpoint state: it describes the
	// relation between the live cache and one snapshot, and Snapshot and
	// Restore rebuild it.
	base        *CacheState //snapshot:skip copy-on-write bookkeeping, rebuilt by Snapshot and Restore themselves
	touched     []int32     //snapshot:skip copy-on-write bookkeeping, rebuilt by Snapshot and Restore themselves
	touchedMark []uint8     //snapshot:skip copy-on-write bookkeeping, rebuilt by Snapshot and Restore themselves

	//equality:dead event counters; never fed back into execution or classification
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
	lines := sets * cfg.Ways
	c := &Cache{
		cfg:         cfg,
		sets:        sets,
		offBits:     bits.TrailingZeros(uint(cfg.LineSize)),
		setBits:     bits.TrailingZeros(uint(sets)),
		tags:        make([]uint64, lines),
		lru:         make([]uint64, lines),
		valid:       make([]uint8, lines),
		dirty:       make([]uint8, lines),
		data:        make([]byte, lines*cfg.LineSize),
		touchedMark: make([]uint8, lines),
		base:        zeroCacheState(lines, cfg.LineSize, cfg.Ways),
		lower:       lower,
	}
	c.tagWidth = cfg.AddrBits - c.offBits - c.setBits
	if c.tagWidth <= 0 {
		simerr.Assertf("cache %s: nonpositive tag width", cfg.Name)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// TagWidth returns the stored tag width in bits (excluding state bits).
func (c *Cache) TagWidth() int { return c.tagWidth }

func (c *Cache) set(addr uint64) int { return int(addr>>c.offBits) & (c.sets - 1) }
func (c *Cache) tagOf(addr uint64) uint64 {
	return (addr >> (c.offBits + c.setBits)) & ((1 << c.tagWidth) - 1)
}

// lineData returns the data bytes of one line within the flat slab.
func (c *Cache) lineData(line int) []byte {
	off := line * c.cfg.LineSize
	return c.data[off : off+c.cfg.LineSize]
}

// Touched-line marks. A read hit only advances the line's LRU stamp, so
// restoring it is one scalar store; a fill, write, or fault flip can
// change any line byte and needs the full copy.
const (
	markClean uint8 = iota // identical to the base
	markLRU                // only the LRU stamp changed (read hit)
	markLine               // tag/valid/dirty/data may have changed
)

// markLRUOnly records that a line's LRU stamp moved away from the
// base's. A line already fully marked stays full.
func (c *Cache) markLRUOnly(line int) {
	if c.touchedMark[line] != markClean {
		return
	}
	c.touchedMark[line] = markLRU
	c.touched = append(c.touched, int32(line))
}

// markFull records that a line's state beyond the LRU stamp may have
// changed, upgrading an LRU-only mark in place (the line is already in
// the touched list).
func (c *Cache) markFull(line int) {
	if c.touchedMark[line] == markLine {
		return
	}
	if c.touchedMark[line] == markClean {
		c.touched = append(c.touched, int32(line))
	}
	c.touchedMark[line] = markLine
}

// lineAddr reconstructs the base address of a resident line from its set
// index and stored tag. A corrupted tag reconstructs to a different —
// possibly unmapped — address; that is exactly how tag faults escape.
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return tag<<(c.offBits+c.setBits) | uint64(set)<<c.offBits
}

// lookup returns the way index of a hit in the set, or -1.
func (c *Cache) lookup(set int, tag uint64) int {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] != 0 && c.tags[base+w] == tag {
			return w
		}
	}
	return -1
}

// victim picks the replacement way for a set: first invalid way, else
// least-recently used.
func (c *Cache) victim(set int) int {
	base := set * c.cfg.Ways
	best, bestLRU := 0, ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] == 0 {
			return w
		}
		if c.lru[base+w] < bestLRU {
			bestLRU = c.lru[base+w]
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
	line := set*c.cfg.Ways + w
	c.markFull(line)
	if c.valid[line] != 0 {
		c.Stats.Evictions++
		if c.dirty[line] != 0 {
			c.Stats.Writebacks++
			lat += c.lower.WriteLine(c.lineAddr(set, c.tags[line]), c.lineData(line))
		}
	}
	lineBase := addr &^ uint64(c.cfg.LineSize-1)
	lat += c.lower.ReadLine(lineBase, c.lineData(line))
	c.tags[line] = tag
	c.valid[line] = 1
	c.dirty[line] = 0
	return w, lat
}

// touch stamps the line a lookup ended on with the advanced LRU clock.
// Every lookup of a set ends here (Read inlines it), which is what lets
// CacheState.QuietSince read "this set was not looked up" off the stamps.
func (c *Cache) touch(set, way int) {
	c.clock++
	line := set*c.cfg.Ways + way
	c.markLRUOnly(line)
	c.lru[line] = c.clock
}

// Read performs a program-level read of size bytes (1, 4, or 8) that
// must not cross a line boundary. It returns the little-endian value and
// the access latency.
//
// This is the hottest call in the simulator (every fetch and every
// load), so the hit path is fused: set, tag, and line index are
// computed once, the lookup is inlined, and the value is extracted
// with a direct little-endian load instead of a bounce buffer. Event
// ordering (hit/miss stats, touched-line marking, the LRU clock)
// matches the generic fill+touch path bit for bit.
func (c *Cache) Read(addr uint64, size int) (uint64, int) {
	set := int(addr>>c.offBits) & (c.sets - 1)
	tag := (addr >> (c.offBits + c.setBits)) & ((1 << c.tagWidth) - 1)
	base := set * c.cfg.Ways
	line := -1
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] != 0 && c.tags[base+w] == tag {
			line = base + w
			break
		}
	}
	lat := 0
	if line >= 0 {
		c.Stats.Hits++
	} else {
		var w int
		w, lat = c.miss(addr, set, tag)
		line = base + w
	}
	c.clock++
	if c.touchedMark[line] == markClean {
		c.touchedMark[line] = markLRU
		c.touched = append(c.touched, int32(line))
	}
	c.lru[line] = c.clock
	d := c.data[line*c.cfg.LineSize+(int(addr)&(c.cfg.LineSize-1)):]
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
	set := c.set(addr)
	c.touch(set, way)
	line := set*c.cfg.Ways + way
	c.markFull(line) // data and dirty change below; an LRU-only mark is not enough
	off := int(addr) & (c.cfg.LineSize - 1)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	copy(c.lineData(line)[off:off+size], buf[:size])
	c.dirty[line] = 1
	return c.cfg.HitLatency + lat
}

// ReadLine implements Backend so a cache can serve as the lower level of
// another cache.
func (c *Cache) ReadLine(addr uint64, dst []byte) int {
	way, lat := c.fill(addr)
	set := c.set(addr)
	c.touch(set, way)
	// The upper cache's line size can be at most ours; a naturally
	// aligned smaller line sits inside one of our lines.
	off := int(addr) & (c.cfg.LineSize - 1)
	if off+len(dst) > c.cfg.LineSize {
		simerr.Assertf("cache %s: line read spans lines at %#x", c.cfg.Name, addr)
	}
	copy(dst, c.lineData(set*c.cfg.Ways + way)[off:off+len(dst)])
	return c.cfg.HitLatency + lat
}

// WriteLine implements Backend for write-backs arriving from above.
func (c *Cache) WriteLine(addr uint64, src []byte) int {
	way, lat := c.fill(addr)
	set := c.set(addr)
	c.touch(set, way)
	line := set*c.cfg.Ways + way
	c.markFull(line) // data and dirty change below; an LRU-only mark is not enough
	off := int(addr) & (c.cfg.LineSize - 1)
	if off+len(src) > c.cfg.LineSize {
		simerr.Assertf("cache %s: line write spans lines at %#x", c.cfg.Name, addr)
	}
	copy(c.lineData(line)[off:off+len(src)], src)
	c.dirty[line] = 1
	return c.cfg.HitLatency + lat
}

// --- Fault-injection surface -------------------------------------------

// DataBitCount returns the number of injectable bits in the data array.
func (c *Cache) DataBitCount() uint64 {
	return uint64(len(c.data)) * 8
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
// index in [0, DataBitCount).
func (c *Cache) FlipDataBit(bit uint64) {
	c.markFull(c.DataBitLine(bit))
	c.data[bit/8] ^= 1 << (bit % 8)
}

// FlipTagBit flips one bit of the tag array, addressed by a global bit
// index in [0, TagBitCount), in TagBitLine's layout.
func (c *Cache) FlipTagBit(bit uint64) {
	line, validBit := c.TagBitLine(bit)
	c.markFull(line)
	switch b := bit % uint64(c.tagWidth+2); {
	case validBit:
		c.valid[line] ^= 1
	case b < uint64(c.tagWidth):
		c.tags[line] ^= 1 << b
	default:
		c.dirty[line] ^= 1
	}
}

// LineState exposes one line's metadata for tests.
func (c *Cache) LineState(set, way int) (tag uint64, valid, dirty bool) {
	line := set*c.cfg.Ways + way
	return c.tags[line], c.valid[line] != 0, c.dirty[line] != 0
}
