package mem

import (
	"math/rand"
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/fieldtable"
)

// TestCacheFieldTable gives every Cache field one row and checks it by
// perturbation (see internal/fieldtable). Line state is perturbed
// through FlipDataBit and FlipTagBit, or through a chunk the cache owns,
// so no shared chunk is written. The chunk table carries every line
// attribute, so beside the table's own run, whose chunks row perturbs a
// tag, a subtest per attribute reruns it perturbing the chunks through
// that attribute.
func TestCacheFieldTable(t *testing.T) {
	cfg := CacheConfig{Name: "l1d", Size: 16 << 10, Ways: 2, LineSize: 64, HitLatency: 2, AddrBits: 32}
	blank := func() *Cache { return NewCache(cfg, testMemory()) }
	source := func() *Cache {
		c := blank()
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			addr := 0x100000 + uint64(r.Intn(1<<16))&^7
			if r.Intn(2) == 0 {
				c.Write(addr, 8, r.Uint64())
			} else {
				c.Read(addr, 8)
			}
		}
		return c
	}
	validLine := func(c *Cache) int {
		for line := range c.lines() {
			if ch, i := c.at(line); ch.valid[i] != 0 {
				return line
			}
		}
		panic("no valid line")
	}
	// flipTag flips bit b of the first valid line's tag entry: tag bits
	// first, then the valid bit, then the dirty bit.
	flipTag := func(c *Cache, b int) { c.FlipTagBit(uint64(validLine(c)*(c.tagWidth+2) + b)) }
	const (
		state       = fieldtable.State
		fixed       = fieldtable.Fixed
		bookkeeping = fieldtable.Bookkeeping
		geometry    = "immutable geometry, derived at construction"
	)
	subject := fieldtable.Subject[Cache, *CacheState]{
		Source:   source,
		Blank:    blank,
		Snapshot: (*Cache).Snapshot,
		Restore:  (*Cache).Restore,
		Encode: func(s *CacheState) (*CacheState, error) {
			var w binio.Writer
			s.EncodeTo(&w, &Encoder{})
			return DecodeCacheState(binio.NewReader(w.Bytes()), cfg, &Decoder{})
		},
		Equal:       (*CacheState).Equal,
		StateEquals: (*Cache).StateEquals,
	}
	check := func(t *testing.T, perturbChunks func(c *Cache)) {
		fieldtable.Check(t, subject, []fieldtable.Row[Cache]{
			{Field: "cfg", Class: fixed, Reason: "immutable configuration, fixed at construction",
				Perturb: func(c *Cache) { c.cfg.Name += "'" }}, // a geometry change would only make Restore refuse the snapshot
			{Field: "sets", Class: fixed, Reason: geometry},
			{Field: "offBits", Class: fixed, Reason: geometry},
			{Field: "setBits", Class: fixed, Reason: geometry},
			{Field: "tagWidth", Class: fixed, Reason: geometry},
			{Field: "lower", Class: fieldtable.Wiring, Reason: "hierarchy wiring; the lower level is checkpointed on its own"},

			{Field: "chunks", Class: state, Reason: "every line's tag, LRU stamp, valid and dirty bit and data bytes", Perturb: perturbChunks},
			{Field: "clock", Class: state, Reason: "LRU clock: the next lookup's stamp"},

			{Field: "owned", Class: bookkeeping, Reason: "copy-on-write marks: Snapshot and Restore hand every chunk over as shared",
				Perturb: func(c *Cache) { c.own(0) }},

			{Field: "Stats", Class: fieldtable.Dead, Reason: "event counters; never fed back into execution or classification"},
		})
	}
	attrs := []struct {
		name    string
		perturb func(c *Cache)
	}{
		{"tags", func(c *Cache) { flipTag(c, 0) }},
		{"lru", func(c *Cache) { ch, i := c.own(validLine(c)); ch.lru[i] ^= 1 }},
		{"valid", func(c *Cache) { flipTag(c, c.tagWidth) }},
		{"dirty", func(c *Cache) { flipTag(c, c.tagWidth+1) }},
		{"data", func(c *Cache) { c.FlipDataBit(uint64(validLine(c) * c.cfg.LineSize * 8)) }},
	}
	check(t, attrs[0].perturb)
	for _, attr := range attrs {
		t.Run(attr.name, func(t *testing.T) { check(t, attr.perturb) })
	}
}

// TestMemoryFieldTable gives every Memory field one row and checks it by
// perturbation (see internal/fieldtable). Pages change only through a
// store, which copies a page a snapshot shares before writing it.
func TestMemoryFieldTable(t *testing.T) {
	source := func() *Memory {
		m := testMemory()
		m.LoadImage(0x1000, []byte{0x13, 0, 0, 0})
		m.Snapshot() // shares every page, so the store below copies its page
		m.WriteLine(0x100000, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		return m
	}
	store := func(m *Memory) {
		line := make([]byte, 8)
		m.ReadLine(0x100000, line)
		line[0] ^= 1
		m.WriteLine(0x100000, line)
	}
	fieldtable.Check(t, fieldtable.Subject[Memory, *MemoryState]{
		Source:   source,
		Blank:    testMemory,
		Snapshot: (*Memory).Snapshot,
		Restore:  (*Memory).Restore,
		Encode: func(s *MemoryState) (*MemoryState, error) {
			var w binio.Writer
			s.EncodeTo(&w, &Encoder{})
			return DecodeMemoryState(binio.NewReader(w.Bytes()), &Decoder{})
		},
		Equal:       (*MemoryState).Equal,
		StateEquals: (*Memory).StateEquals,
	}, []fieldtable.Row[Memory]{
		{Field: "regions", Class: fieldtable.Fixed, Reason: "immutable address map, fixed at program load"},
		{Field: "pages", Class: fieldtable.State, Reason: "memory contents", Perturb: store,
			View: func(m *Memory) any { return m.ReadWord(0x100000, 8) }},
		{Field: "shared", Class: fieldtable.Bookkeeping, Reason: "copy-on-write marks: Snapshot and Restore mark every page they hand over",
			Perturb: func(m *Memory) { m.shared[0] = struct{}{} }, // page 0 is unmapped
			View:    func(m *Memory) any { _, ok := m.shared[0]; return ok }},
		{Field: "Latency", Class: fieldtable.Fixed, Reason: "immutable configuration, fixed at construction"},
	})
}
