package mem

import (
	"math/rand"
	"slices"
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/simerr"
)

// deepState images the live table into chunks of its own, consulting
// none of the cache's ownership flags. It is what the tests compare
// against: a snapshot shares the live chunks, so only an independent
// image can tell whether a later write went through one of them.
func deepState(c *Cache) *CacheState {
	s := &CacheState{Clock: c.clock, Stats: c.Stats, lines: c.lines(), lineSize: c.cfg.LineSize, ways: c.cfg.Ways,
		chunks: make([]*cacheChunk, len(c.chunks))}
	for k, ch := range c.chunks {
		s.chunks[k] = ch.clone()
		s.chunks[k].data = slices.Clone(ch.data)
	}
	return s
}

// refStateEquals is StateEquals without the sharing shortcuts: every
// line compared on its own, invalid lines by their valid bit only.
func refStateEquals(c *Cache, s *CacheState) bool {
	if c.clock != s.Clock {
		return false
	}
	ls := c.cfg.LineSize
	for line := range c.lines() {
		a, i := c.at(line)
		b := s.chunks[line>>chunkShift]
		if a.valid[i] != b.valid[i] {
			return false
		}
		if a.valid[i] != 0 && (a.tags[i] != b.tags[i] || a.dirty[i] != b.dirty[i] || a.lru[i] != b.lru[i] ||
			string(a.data[i*ls:(i+1)*ls]) != string(b.data[i*ls:(i+1)*ls])) {
			return false
		}
	}
	return true
}

// differingChunks counts the table entries in which a and b hold
// different chunks.
func differingChunks(a, b *CacheState) int {
	n := 0
	for k := range a.chunks {
		if a.chunks[k] != b.chunks[k] {
			n++
		}
	}
	return n
}

// cowHierarchy is newHierarchy with caches big enough to span many
// chunks: L1 256 lines (4 chunks), L2 2048 lines (32 chunks).
func cowHierarchy() (*Cache, *Cache) {
	m := testMemory()
	l2 := NewCache(CacheConfig{Name: "l2", Size: 128 << 10, Ways: 8, LineSize: 64, HitLatency: 12, AddrBits: 32}, m)
	l1 := NewCache(CacheConfig{Name: "l1d", Size: 16 << 10, Ways: 2, LineSize: 64, HitLatency: 2, AddrBits: 32}, l2)
	return l2, l1
}

// mutate applies n random operations of every kind that can change
// cache state: stores, loads (LRU moves, fills, evictions, write-backs
// into the level below) and fault flips in both arrays. A flipped tag
// can send a write-back outside the memory map; that modelled assert
// ends the burst mid-operation, the way it ends a faulty run.
func mutate(r *rand.Rand, c *Cache, n int) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(*simerr.Assert); !ok {
				panic(p)
			}
		}
	}()
	for i := 0; i < n; i++ {
		addr := 0x100000 + uint64(r.Intn(1<<16))&^7
		switch r.Intn(8) {
		case 0:
			c.FlipDataBit(uint64(r.Int63n(int64(c.DataBitCount()))))
		case 1:
			c.FlipTagBit(uint64(r.Int63n(int64(c.TagBitCount()))))
		case 2, 3, 4:
			c.Write(addr, 8, r.Uint64())
		default:
			c.Read(addr, 8)
		}
	}
}

// TestSnapshotsSurviveLiveMutation is the aliasing-safety property of
// copy-on-write snapshots, on a two-level hierarchy under random
// stores, fills, FlipDataBit and FlipTagBit with snapshots and restores
// interleaved: every snapshot stays Equal to the deep image made when
// it was taken, whatever the live cache and later snapshots do; every
// restore leaves the live arrays bit-identical to that image; and
// StateEquals agrees with the every-line comparison against any
// snapshot at any time.
func TestSnapshotsSurviveLiveMutation(t *testing.T) {
	for _, build := range []func() (*Cache, *Cache){
		func() (*Cache, *Cache) { _, l2, l1 := newHierarchy(); return l2, l1 }, // L1 is one partial chunk
		cowHierarchy,
	} {
		l2, l1 := build()
		r := rand.New(rand.NewSource(7))
		type taken struct{ snap, deep [2]*CacheState }
		var all []taken
		caches := [2]*Cache{l1, l2}
		for step := 0; step < 400; step++ {
			mutate(r, l1, 1+r.Intn(40))
			if r.Intn(4) == 0 {
				mutate(r, l2, 1+r.Intn(4)) // faults land in the lower level too
			}
			switch r.Intn(3) {
			case 0:
				var tk taken
				for i, c := range caches {
					tk.deep[i] = deepState(c)
					tk.snap[i] = c.Snapshot()
					if !tk.snap[i].Equal(tk.deep[i]) {
						t.Fatalf("step %d: %s snapshot differs from the live arrays", step, c.cfg.Name)
					}
				}
				all = append(all, tk)
			case 1:
				if len(all) == 0 {
					continue
				}
				tk := all[r.Intn(len(all))]
				for i, c := range caches {
					c.Restore(tk.snap[i])
					if !deepState(c).Equal(tk.deep[i]) {
						t.Fatalf("step %d: %s live arrays differ from the restored snapshot", step, c.cfg.Name)
					}
					if !c.StateEquals(tk.snap[i]) {
						t.Fatalf("step %d: %s not StateEquals the snapshot just restored", step, c.cfg.Name)
					}
				}
			}
			if len(all) > 0 {
				tk := all[r.Intn(len(all))]
				for i, c := range caches {
					if got, want := c.StateEquals(tk.snap[i]), refStateEquals(c, tk.snap[i]); got != want {
						t.Fatalf("step %d: %s StateEquals = %v, every-line comparison = %v", step, c.cfg.Name, got, want)
					}
				}
			}
		}
		if len(all) < 50 {
			t.Fatalf("only %d snapshots taken", len(all))
		}
		for n, tk := range all {
			for i, c := range caches {
				if !tk.snap[i].Equal(tk.deep[i]) {
					t.Errorf("%s snapshot %d changed after it was taken", c.cfg.Name, n)
				}
			}
		}
	}
}

// ownedChunks counts the chunks a cache owns.
func ownedChunks(c *Cache) int {
	n := 0
	for _, o := range c.owned {
		if o != shared {
			n++
		}
	}
	return n
}

// TestSnapshotSharesEveryChunk pins what a snapshot costs and what a
// write after one costs: a new cache names the shared all-zero chunk
// everywhere; Snapshot copies the table and no chunk, and hands every
// chunk over; the first write after a snapshot, or after a restore —
// into a new cache, and into one that owned the chunk before — clones
// exactly the chunk it writes, and the snapshot still reads the old
// bytes.
func TestSnapshotSharesEveryChunk(t *testing.T) {
	l2, l1 := cowHierarchy()
	zero := zeroChunk(64)
	s0 := l2.Snapshot()
	for k, ch := range s0.chunks {
		if ch != zero {
			t.Fatalf("untouched cache: chunk %d is not the shared zero chunk", k)
		}
	}
	l1.Write(0x100000, 8, 1) // one L1 line, one L2 line (the fill)
	if n := ownedChunks(l2); n != 1 {
		t.Fatalf("one fill owns %d L2 chunks, want 1", n)
	}
	live := slices.Clone(l2.chunks)
	s1 := l2.Snapshot()
	if !slices.Equal(s1.chunks, live) {
		t.Fatal("Snapshot copied a chunk")
	}
	if n := ownedChunks(l2); n != 0 {
		t.Fatalf("after Snapshot the cache still owns %d chunks", n)
	}
	if n := differingChunks(s0, s1); n != 1 {
		t.Fatalf("one fill made %d L2 chunks new, want 1", n)
	}
	if n := differingChunks(s1, l2.Snapshot()); n != 0 {
		t.Fatalf("snapshot with nothing written made %d chunks new", n)
	}
	var kept *CacheState
	if allocs := testing.AllocsPerRun(10, func() { kept = l2.Snapshot() }); allocs != 2 || kept == nil {
		t.Fatalf("Snapshot allocates %v times, want 2 (the state and its table)", allocs)
	}

	// The first write after a snapshot clones the chunk it writes, and
	// only that one; the snapshot keeps the old bytes.
	img := deepState(l1)
	s := l1.Snapshot()
	l1.Write(0x100000, 8, 2) // a hit
	if n := differingChunks(s, l1.Snapshot()); n != 1 {
		t.Fatalf("a store after a snapshot made %d chunks new, want 1", n)
	}
	if !s.Equal(img) {
		t.Fatal("a store after a snapshot changed the snapshot")
	}

	// The same after a restore, into a cache that owned the written
	// chunk just before: the restore must hand it back as shared.
	l1.Write(0x100000, 8, 3)
	l1.Restore(s)
	l1.Write(0x100000, 8, 4)
	if n := ownedChunks(l1); n != 1 {
		t.Fatalf("a store after a restore owns %d chunks, want 1", n)
	}
	if !s.Equal(img) {
		t.Fatal("a store after a restore changed the restored snapshot")
	}
	if v, _ := l1.Read(0x100000, 8); v != 4 {
		t.Fatalf("read back %d after the store, want 4", v)
	}

	// And into a new cache: a read hit moves one LRU stamp, so it clones
	// one chunk and keeps sharing the chunk's data block; the first store
	// to the line clones the block.
	other, _ := cowHierarchy()
	other.Restore(s1)
	if n := ownedChunks(other); n != 0 {
		t.Fatalf("a restored cache owns %d chunks", n)
	}
	img1 := deepState(other)
	other.Read(0x100000, 8) // LRU move on the line s1 filled
	k := other.set(0x100000) * other.cfg.Ways >> chunkShift
	if other.chunks[k] == s1.chunks[k] || &other.chunks[k].data[0] != &s1.chunks[k].data[0] {
		t.Fatal("a read hit did not clone its chunk, or cloned the chunk's data block")
	}
	if n := differingChunks(s1, other.Snapshot()); n != 1 {
		t.Fatalf("snapshot after a cross-cache restore and one read hit made %d chunks new, want 1", n)
	}
	other.Restore(s1)
	other.Read(0x100000, 8)
	other.Write(0x100000, 8, 5)
	if &other.chunks[k].data[0] == &s1.chunks[k].data[0] {
		t.Fatal("a store after a read hit wrote the shared data block")
	}
	if !s1.Equal(img1) {
		t.Fatal("a read hit and a store after a restore changed the restored snapshot")
	}
}

// TestStateEqualsComparesOnlyDifferingChunks is the regression test for
// the convergence comparison on a dense ladder. The per-cache memo of
// base-versus-watch line differences this replaced held 32 entries and
// was wiped when full, so a 32-rung stream (31 watches per base) would
// have recomputed every diff on every pass. Now there is nothing to
// memoize: one batch — restore a rung, replay the golden accesses,
// compare against every later rung as the run reaches it — must find
// each rung converged after comparing exactly the chunks the cache
// wrote since the restore plus those whose pointers differ between the
// base and that rung, on every pass, and far fewer than all of them.
func TestStateEqualsComparesOnlyDifferingChunks(t *testing.T) {
	l2, l1 := cowHierarchy()
	r := rand.New(rand.NewSource(11))
	const rungs = 32
	type store struct{ addr, val uint64 }
	var steps [rungs][]store // the accesses leading up to each rung
	var ladder [rungs][2]*CacheState
	caches := [2]*Cache{l1, l2}
	for i := range ladder {
		for j := 0; j < 6; j++ {
			st := store{0x100000 + uint64(r.Intn(1<<12))&^7, r.Uint64()}
			steps[i] = append(steps[i], st)
			l1.Write(st.addr, 8, st.val)
		}
		ladder[i] = [2]*CacheState{l1.Snapshot(), l2.Snapshot()}
	}
	for pass := 0; pass < 3; pass++ {
		for base := 0; base < rungs; base += 5 {
			l1.Restore(ladder[base][0])
			l2.Restore(ladder[base][1])
			for w := base + 1; w < rungs; w++ {
				for _, st := range steps[w] {
					l1.Write(st.addr, 8, st.val)
				}
				for i, c := range caches {
					eq, n := c.stateEquals(ladder[w][i])
					if !eq {
						t.Fatalf("pass %d base %d: %s replay did not converge at rung %d", pass, base, c.cfg.Name, w)
					}
					want := 0
					for k := range c.chunks {
						if c.owned[k] != shared || ladder[base][i].chunks[k] != ladder[w][i].chunks[k] {
							want++
						}
					}
					if n != want {
						t.Fatalf("pass %d base %d rung %d: %s compared %d chunks, %d written or differing between the rungs", pass, base, w, c.cfg.Name, n, want)
					}
				}
			}
		}
	}
	if total, far := len(ladder[0][1].chunks), differingChunks(ladder[0][1], ladder[rungs-1][1]); far*4 > total {
		t.Fatalf("first and last L2 rung differ in %d of %d chunks; the ladder is not sharing", far, total)
	}
	// Untouched and restored to the very rung being compared: no chunk
	// is looked at.
	l2.Restore(ladder[7][1])
	if eq, n := l2.stateEquals(ladder[7][1]); !eq || n != 0 {
		t.Fatalf("cache against its own base: equal=%v after %d chunk comparisons, want true after 0", eq, n)
	}
}

// TestQuietSince pins what the injector's pre-replay verdicts read: a
// set is quiet between two images exactly when nothing looked it up on
// the way — not a read hit, not a lookup that only a snapshot dropped
// from the sequence saw — whatever happened to other sets of the same
// chunk, at the level the lookup reached and no other; and the answer
// survives the codec.
func TestQuietSince(t *testing.T) {
	l2, c := cowHierarchy()
	lineOf := func(c *Cache, addr uint64) int {
		set := c.set(addr)
		return set*c.cfg.Ways + c.lookup(set, c.tagOf(addr))
	}
	c.Read(0x100000, 8)
	filled := lineOf(c, 0x100000)
	sameSet := filled ^ 1                  // the set's other way, never filled
	sameChunk := filled ^ (2 * c.cfg.Ways) // another set of the same chunk
	a, a2 := c.Snapshot(), l2.Snapshot()
	b := c.Snapshot()
	if !a.Valid(filled) || a.Valid(sameSet) || a.Valid(-1) || a.Valid(c.lines()) {
		t.Errorf("Valid: filled line %v, its never-filled neighbor %v, line -1 %v, line %d %v",
			a.Valid(filled), a.Valid(sameSet), a.Valid(-1), c.lines(), a.Valid(c.lines()))
	}
	for _, tc := range []struct {
		line int
		want bool
	}{{filled, true}, {sameSet, true}, {sameChunk, true}, {-1, false}, {c.lines(), false}} {
		if got := b.QuietSince(a.Clock, tc.line); got != tc.want {
			t.Errorf("nothing ran between the snapshots: set of line %d quiet = %v, want %v", tc.line, got, tc.want)
		}
	}
	if b.QuietSince(a.Clock-1, filled) {
		t.Error("the fill that advanced the clock to the first snapshot's left its set quiet since the clock before")
	}

	c.Read(0x100000, 8) // a hit: only the LRU stamp of one line moves
	c.Snapshot()        // seen by a snapshot the sequence drops
	d, d2 := c.Snapshot(), l2.Snapshot()
	for _, tc := range []struct {
		line int
		want bool
	}{{filled, false}, {sameSet, false}, {sameChunk, true}} {
		if got := d.QuietSince(a.Clock, tc.line); got != tc.want {
			t.Errorf("after a read hit on line %d: set of line %d quiet = %v, want %v", filled, tc.line, got, tc.want)
		}
	}
	if !d2.QuietSince(a2.Clock, lineOf(l2, 0x100000)) {
		t.Error("an L1 hit looked up the L2")
	}
	size := uint64(c.cfg.Size)
	c.Read(0x100000+size, 8) // same L1 set, a miss: reaches the L2
	e2 := l2.Snapshot()
	if reached := lineOf(l2, 0x100000+size); e2.QuietSince(a2.Clock, reached) {
		t.Error("an L1 miss left the L2 set it filled from quiet")
	}

	recorded := [3]*CacheState{a, b, d}
	var w binio.Writer
	var enc Encoder
	for _, s := range recorded {
		s.EncodeTo(&w, &enc)
	}
	var dec Decoder
	r := binio.NewReader(w.Bytes())
	var back [3]*CacheState
	for i := range back {
		s, err := DecodeCacheState(r, c.cfg, &dec)
		if err != nil {
			t.Fatal(err)
		}
		back[i] = s
	}
	for line := range c.lines() {
		for _, p := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
			if got, want := back[p[1]].QuietSince(back[p[0]].Clock, line), recorded[p[1]].QuietSince(recorded[p[0]].Clock, line); got != want {
				t.Fatalf("line %d between snapshots %v: quiet %v after decoding, %v before", line, p, got, want)
			}
		}
		if got, want := back[2].Valid(line), recorded[2].Valid(line); got != want {
			t.Fatalf("line %d: valid %v after decoding, %v before", line, got, want)
		}
	}
}
