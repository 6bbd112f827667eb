package mem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sevsim/internal/simerr"
)

// flatCache is a reference model of Cache: one flat array per line
// attribute, no chunks, no sharing. It follows the same replacement,
// write-back and LRU rules, so after any sequence of operations it must
// hold what the chunked cache holds, line for line.
type flatCache struct {
	cfg                             CacheConfig
	sets, offBits, setBits, tagBits int
	tags, lru                       []uint64
	valid, dirty                    []uint8
	data                            []byte
	clock                           uint64
	stats                           CacheStats
	lower                           Backend
}

func newFlatCache(cfg CacheConfig, lower Backend) *flatCache {
	c := NewCache(cfg, lower) // the geometry, derived the one way
	lines := c.lines()
	return &flatCache{cfg: cfg, sets: c.sets, offBits: c.offBits, setBits: c.setBits, tagBits: c.tagWidth,
		tags: make([]uint64, lines), lru: make([]uint64, lines),
		valid: make([]uint8, lines), dirty: make([]uint8, lines), data: make([]byte, lines*cfg.LineSize), lower: lower}
}

func (f *flatCache) clone() *flatCache {
	g := *f
	g.tags, g.lru, g.valid, g.dirty, g.data = slices.Clone(f.tags), slices.Clone(f.lru), slices.Clone(f.valid), slices.Clone(f.dirty), slices.Clone(f.data)
	return &g
}

func (f *flatCache) lineData(line int) []byte {
	return f.data[line*f.cfg.LineSize : (line+1)*f.cfg.LineSize]
}

// access looks addr up, filling on a miss, stamps the line and returns
// it with the miss latency.
func (f *flatCache) access(addr uint64) (line, lat int) {
	set := int(addr>>f.offBits) & (f.sets - 1)
	tag := addr >> (f.offBits + f.setBits) & (1<<f.tagBits - 1)
	first := set * f.cfg.Ways
	line = -1
	for l := first; l < first+f.cfg.Ways; l++ {
		if f.valid[l] != 0 && f.tags[l] == tag {
			line = l
			break
		}
	}
	if line >= 0 {
		f.stats.Hits++
	} else {
		f.stats.Misses++
		line = first
		for l, best := first, ^uint64(0); l < first+f.cfg.Ways; l++ {
			if f.valid[l] == 0 {
				line = l
				break
			}
			if f.lru[l] < best {
				best, line = f.lru[l], l
			}
		}
		if f.valid[line] != 0 {
			f.stats.Evictions++
			if f.dirty[line] != 0 {
				f.stats.Writebacks++
				lat += f.lower.WriteLine(f.tags[line]<<(f.offBits+f.setBits)|uint64(set)<<f.offBits, f.lineData(line))
			}
		}
		lat += f.lower.ReadLine(addr&^uint64(f.cfg.LineSize-1), f.lineData(line))
		f.tags[line], f.valid[line], f.dirty[line] = tag, 1, 0
	}
	f.clock++
	f.lru[line] = f.clock
	return line, lat
}

func (f *flatCache) Read(addr uint64, size int) (uint64, int) {
	line, lat := f.access(addr)
	var buf [8]byte
	off := int(addr) & (f.cfg.LineSize - 1)
	copy(buf[:size], f.lineData(line)[off:])
	return binary.LittleEndian.Uint64(buf[:]), f.cfg.HitLatency + lat
}

func (f *flatCache) Write(addr uint64, size int, val uint64) int {
	line, lat := f.access(addr)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	off := int(addr) & (f.cfg.LineSize - 1)
	copy(f.lineData(line)[off:off+size], buf[:size])
	f.dirty[line] = 1
	return f.cfg.HitLatency + lat
}

func (f *flatCache) ReadLine(addr uint64, dst []byte) int {
	line, lat := f.access(addr)
	copy(dst, f.lineData(line))
	return f.cfg.HitLatency + lat
}

func (f *flatCache) WriteLine(addr uint64, src []byte) int {
	line, lat := f.access(addr)
	copy(f.lineData(line), src)
	f.dirty[line] = 1
	return f.cfg.HitLatency + lat
}

func (f *flatCache) FlipDataBit(bit uint64) { f.data[bit/8] ^= 1 << (bit % 8) }

// FlipTagBit flips a bit in Cache.TagBitLine's layout: per line the tag
// bits, then valid, then dirty.
func (f *flatCache) FlipTagBit(bit uint64) {
	per := uint64(f.tagBits + 2)
	switch line, b := int(bit/per), bit%per; {
	case b == per-2:
		f.valid[line] ^= 1
	case b == per-1:
		f.dirty[line] ^= 1
	default:
		f.tags[line] ^= 1 << b
	}
}

// quietSince is CacheState.QuietSince read off the flat stamps.
func (f *flatCache) quietSince(k uint64, line int) bool {
	first := line - line%f.cfg.Ways
	for l := first; l < first+f.cfg.Ways; l++ {
		if f.lru[l] > k {
			return false
		}
	}
	return true
}

// sameAs reports the first difference between the chunked cache and
// the flat model, or "".
func (f *flatCache) sameAs(c *Cache) string {
	if c.clock != f.clock || c.Stats != f.stats {
		return "clock or counters"
	}
	ls := f.cfg.LineSize
	for line := range c.lines() {
		ch, i := c.at(line)
		if ch.tags[i] != f.tags[line] || ch.lru[i] != f.lru[line] || ch.valid[i] != f.valid[line] || ch.dirty[i] != f.dirty[line] ||
			!slices.Equal(ch.data[i*ls:(i+1)*ls], f.lineData(line)) {
			return fmt.Sprintf("line %d", line)
		}
	}
	return ""
}

// a72L1I is the Cortex-A72-like L1I geometry, 3 ways x 256 sets, made
// writable: 768 lines in 12 chunks, with every set whose lines span
// [63, 65], [126, 128], ... lying across two chunks.
var a72L1I = CacheConfig{Name: "l1i", Size: 48 << 10, Ways: 3, LineSize: 64, HitLatency: 1, AddrBits: 32}

// TestStraddlingSetsMatchFlatModel drives the chunked cache and the flat
// model through the same random reads, writes, line transfers from an
// upper level and tag and data flips, mostly on the sets that straddle
// a chunk boundary, with snapshots and restores in between. Hits,
// misses, LRU victims, values, latencies and every line's state must
// agree, and so must QuietSince and Valid on every line between any two
// snapshots.
func TestStraddlingSetsMatchFlatModel(t *testing.T) {
	c := NewCache(a72L1I, testMemory())
	f := newFlatCache(a72L1I, testMemory())
	var straddling []int
	for set := range c.sets {
		if first := set * c.cfg.Ways; first>>chunkShift != (first+c.cfg.Ways-1)>>chunkShift {
			straddling = append(straddling, set)
		}
	}
	if len(straddling) != 8 || straddling[0] != 21 {
		t.Fatalf("straddling sets %v: the geometry is not the one this test is about", straddling)
	}
	r := rand.New(rand.NewSource(21))
	// addr picks a line-aligned address in the data region: 4 of 5 in a
	// straddling set, with enough distinct tags per set to evict.
	addr := func() uint64 {
		set := r.Intn(c.sets)
		if r.Intn(5) != 0 {
			set = straddling[r.Intn(len(straddling))]
		}
		return 0x100000 + uint64(r.Intn(8))*uint64(c.cfg.Size/c.cfg.Ways) + uint64(set*c.cfg.LineSize)
	}
	// lineBit picks one of per bits of a line in a straddling set.
	lineBit := func(per uint64) uint64 {
		set := straddling[r.Intn(len(straddling))]
		return uint64(set*c.cfg.Ways+r.Intn(c.cfg.Ways))*per + uint64(r.Int63n(int64(per)))
	}
	// both runs op on the model and on the cache; a modelled assert (a
	// flipped tag writing back outside the map) must end both the same
	// way.
	both := func(op func(flat bool)) {
		t.Helper()
		var asserted [2]bool
		for i, flat := range []bool{true, false} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						if _, ok := p.(*simerr.Assert); !ok {
							panic(p)
						}
						asserted[i] = true
					}
				}()
				op(flat)
			}()
		}
		if asserted[0] != asserted[1] {
			t.Fatalf("model asserted %v, cache asserted %v", asserted[0], asserted[1])
		}
	}
	type taken struct {
		s    *CacheState
		flat *flatCache
	}
	var held []taken
	prev := c.Snapshot()
	held = append(held, taken{prev, f.clone()})
	line := make([]byte, c.cfg.LineSize)
	for step := 0; step < 6000; step++ {
		a := addr()
		switch r.Intn(10) {
		case 0, 1, 2:
			a += uint64(r.Intn(8) * 8)
			size := []int{1, 4, 8}[r.Intn(3)]
			var got, want uint64
			var gotLat, wantLat int
			both(func(flat bool) {
				if flat {
					want, wantLat = f.Read(a, size)
				} else {
					got, gotLat = c.Read(a, size)
				}
			})
			if got != want || gotLat != wantLat {
				t.Fatalf("step %d: Read(%#x, %d) = %#x in %d cycles, model %#x in %d", step, a, size, got, gotLat, want, wantLat)
			}
		case 3, 4:
			a += uint64(r.Intn(8) * 8)
			v := r.Uint64()
			var got, want int
			both(func(flat bool) {
				if flat {
					want = f.Write(a, 8, v)
				} else {
					got = c.Write(a, 8, v)
				}
			})
			if got != want {
				t.Fatalf("step %d: Write(%#x) latency %d, model %d", step, a, got, want)
			}
		case 5:
			r.Read(line)
			var got, want int
			both(func(flat bool) {
				if flat {
					want = f.WriteLine(a, line)
				} else {
					got = c.WriteLine(a, line)
				}
			})
			if got != want {
				t.Fatalf("step %d: WriteLine(%#x) latency %d, model %d", step, a, got, want)
			}
		case 6:
			got, want := make([]byte, len(line)), make([]byte, len(line))
			var gotLat, wantLat int
			both(func(flat bool) {
				if flat {
					wantLat = f.ReadLine(a, want)
				} else {
					gotLat = c.ReadLine(a, got)
				}
			})
			if !slices.Equal(got, want) || gotLat != wantLat {
				t.Fatalf("step %d: ReadLine(%#x) differs from the model", step, a)
			}
		case 7:
			bit := lineBit(uint64(c.cfg.LineSize * 8))
			f.FlipDataBit(bit)
			c.FlipDataBit(bit)
		case 8:
			bit := lineBit(uint64(c.tagWidth + 2))
			f.FlipTagBit(bit)
			c.FlipTagBit(bit)
		case 9:
			if r.Intn(3) == 0 {
				tk := held[r.Intn(len(held))]
				c.Restore(tk.s)
				f = tk.flat.clone()
				prev = tk.s
				break
			}
			s := c.Snapshot()
			for l := range c.lines() {
				if got, want := s.QuietSince(prev.Clock, l), f.quietSince(prev.Clock, l); got != want {
					t.Fatalf("step %d: line %d quiet since clock %d: %v, model %v", step, l, prev.Clock, got, want)
				}
				if got, want := s.Valid(l), f.valid[l] != 0; got != want {
					t.Fatalf("step %d: line %d valid %v, model %v", step, l, got, want)
				}
			}
			held = append(held, taken{s, f.clone()})
			prev = s
		}
		if step%16 == 0 {
			if d := f.sameAs(c); d != "" {
				t.Fatalf("step %d: cache and model differ in %s", step, d)
			}
		}
	}
	if d := f.sameAs(c); d != "" {
		t.Fatalf("cache and model differ in %s", d)
	}
	for n, tk := range held {
		d := NewCache(a72L1I, testMemory())
		d.Restore(tk.s)
		if diff := tk.flat.sameAs(d); diff != "" {
			t.Fatalf("snapshot %d changed after it was taken: %s", n, diff)
		}
	}
}

// TestConcurrentRestoreOfOneState restores one pair of cache images into
// four hierarchies at once; each then stores, loads and evicts, and
// flips tag and data bits. Every hierarchy must read its own stores, and
// the images must stay what they were: the shared chunks are only ever
// read. Run it under the race detector (go test -race -count=10 -run
// Concurrent).
func TestConcurrentRestoreOfOneState(t *testing.T) {
	l2, l1 := cowHierarchy()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		a := 0x100000 + uint64(r.Intn(1<<16))&^7
		if r.Intn(2) == 0 {
			l1.Write(a, 8, r.Uint64())
		} else {
			l1.Read(a, 8)
		}
	}
	s1, s2 := l1.Snapshot(), l2.Snapshot()
	deep1, deep2 := deepState(l1), deepState(l2)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m2, m1 := cowHierarchy()
			m1.Restore(s1)
			m2.Restore(s2)
			r := rand.New(rand.NewSource(int64(g)))
			want := map[uint64]uint64{}
			var order []uint64
			for i := 0; i < 500; i++ {
				a := 0x100000 + uint64(r.Intn(1<<16))&^7
				v := r.Uint64()
				m1.Write(a, 8, v)
				if _, seen := want[a]; !seen {
					order = append(order, a)
				}
				want[a] = v
			}
			for _, a := range order {
				if got, _ := m1.Read(a, 8); got != want[a] {
					errs[g] = fmt.Errorf("read %#x from %#x, stored %#x", got, a, want[a])
					return
				}
			}
			for _, c := range []*Cache{m1, m2} {
				for i := 0; i < 100; i++ {
					c.FlipDataBit(uint64(r.Int63n(int64(c.DataBitCount()))))
					c.FlipTagBit(uint64(r.Int63n(int64(c.TagBitCount()))))
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if !s1.Equal(deep1) || !s2.Equal(deep2) {
		t.Fatal("a restored image changed under the caches that restored it")
	}
}
