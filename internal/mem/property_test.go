package mem

import (
	"math/rand"
	"slices"
	"testing"

	"sevsim/internal/simerr"
)

// TestCacheRandomFaultStorm: under any sequence of random accesses
// interleaved with random tag/data flips, the hierarchy either keeps
// serving requests or fails with a modelled Assert — never a raw panic —
// and clean-state invariants hold after a flush-free reread.
func TestCacheRandomFaultStorm(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*simerr.Assert); ok {
						return // modelled outcome: fine
					}
					t.Fatalf("seed %d: raw panic: %v", seed, r)
				}
			}()
			m := testMemory()
			l2 := NewCache(CacheConfig{Name: "l2", Size: 4096, Ways: 2, LineSize: 64, HitLatency: 8, AddrBits: 32}, m)
			l1 := NewCache(CacheConfig{Name: "l1", Size: 1024, Ways: 2, LineSize: 64, HitLatency: 2, AddrBits: 32}, l2)
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				addr := 0x100000 + uint64(r.Intn(512))*8
				switch r.Intn(5) {
				case 0:
					l1.Write(addr, 8, r.Uint64())
				case 1:
					l1.Read(addr, 8)
				case 2:
					l1.FlipDataBit(uint64(r.Int63n(int64(l1.DataBitCount()))))
				case 3:
					l1.FlipTagBit(uint64(r.Int63n(int64(l1.TagBitCount()))))
				case 4:
					l2.FlipTagBit(uint64(r.Int63n(int64(l2.TagBitCount()))))
				}
			}
		}()
	}
}

// TestCacheReadsNeverMutateMemoryModel: reads through a fault-free
// hierarchy are side-effect-free with respect to values.
func TestCacheReadsNeverMutateMemoryModel(t *testing.T) {
	m := testMemory()
	l1 := NewCache(CacheConfig{Name: "l1", Size: 1024, Ways: 2, LineSize: 64, HitLatency: 2, AddrBits: 32}, m)
	r := rand.New(rand.NewSource(9))
	want := map[uint64]uint64{}
	for i := 0; i < 500; i++ {
		addr := 0x100000 + uint64(r.Intn(256))*8
		v := r.Uint64()
		l1.Write(addr, 8, v)
		want[addr] = v
	}
	for i := 0; i < 5000; i++ {
		addr := 0x100000 + uint64(r.Intn(256))*8
		if v, _ := l1.Read(addr, 8); v != want[addr] {
			t.Fatalf("read %d: %#x = %#x, want %#x", i, addr, v, want[addr])
		}
	}
}

// TestByteGranularityMixedSizes interleaves 1-, 4-, and 8-byte accesses
// against a byte-accurate shadow.
func TestByteGranularityMixedSizes(t *testing.T) {
	m := testMemory()
	l1 := NewCache(CacheConfig{Name: "l1", Size: 2048, Ways: 2, LineSize: 64, HitLatency: 2, AddrBits: 32}, m)
	shadow := make([]byte, 4096)
	base := uint64(0x100000)
	r := rand.New(rand.NewSource(4))
	sizes := []int{1, 4, 8}
	for i := 0; i < 20000; i++ {
		size := sizes[r.Intn(3)]
		off := uint64(r.Intn(4096-8)) &^ uint64(size-1)
		if r.Intn(2) == 0 {
			v := r.Uint64()
			l1.Write(base+off, size, v)
			for k := 0; k < size; k++ {
				shadow[off+uint64(k)] = byte(v >> (8 * k))
			}
		} else {
			got, _ := l1.Read(base+off, size)
			var want uint64
			for k := size - 1; k >= 0; k-- {
				want = want<<8 | uint64(shadow[off+uint64(k)])
			}
			if got != want {
				t.Fatalf("iter %d: read%d @%#x = %#x, want %#x", i, size, off, got, want)
			}
		}
	}
}

// stampChecker sits between two cache levels (or between the test and the
// upper one) and holds every lookup to the premise CacheState.QuietSince
// rests on: when the call returns, the newest stamp in the set it looked
// up is the cache's clock. It also notes which sets were looked up.
type stampChecker struct {
	t        *testing.T
	c        *Cache
	lookedUp []bool // per set, since the test last cleared it
}

func (s *stampChecker) check(op string, addr uint64) {
	s.t.Helper()
	set := s.c.set(addr)
	s.lookedUp[set] = true
	if newest := slices.Max(s.c.lru[set*s.c.cfg.Ways : (set+1)*s.c.cfg.Ways]); newest != s.c.Clock() {
		s.t.Fatalf("%s %s(%#x): newest stamp in set %d is %d, clock %d", s.c.cfg.Name, op, addr, set, newest, s.c.Clock())
	}
}

func (s *stampChecker) ReadLine(addr uint64, dst []byte) int {
	lat := s.c.ReadLine(addr, dst)
	s.check("ReadLine", addr)
	return lat
}

func (s *stampChecker) WriteLine(addr uint64, src []byte) int {
	lat := s.c.WriteLine(addr, src)
	s.check("WriteLine", addr)
	return lat
}

// TestLookupStampsItsSet: after any random sequence of Read, Write,
// ReadLine and WriteLine on an L1 over an L2 small enough to evict and
// write back constantly, every lookup — the fills and write-backs the L1
// sends down included — leaves its set's newest stamp equal to the clock
// of the level it reached, no stamp ever decreases, and QuietSince says
// of every set, between two snapshots, exactly whether a lookup reached
// it. An access path that forgets to stamp fails here, not in a proof.
func TestLookupStampsItsSet(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := testMemory()
		l2 := NewCache(CacheConfig{Name: "l2", Size: 4096, Ways: 4, LineSize: 64, HitLatency: 8, AddrBits: 32}, m)
		under := &stampChecker{t: t, c: l2, lookedUp: make([]bool, l2.sets)}
		l1 := NewCache(CacheConfig{Name: "l1", Size: 1024, Ways: 2, LineSize: 64, HitLatency: 2, AddrBits: 32}, under)
		over := &stampChecker{t: t, c: l1, lookedUp: make([]bool, l1.sets)}
		levels := []*stampChecker{over, under}
		r := rand.New(rand.NewSource(seed))
		line := make([]byte, 64)
		for round := 0; round < 40; round++ {
			from := [2]*CacheState{l1.Snapshot(), l2.Snapshot()}
			for _, lv := range levels {
				clear(lv.lookedUp)
			}
			// Few operations over few lines in the early rounds, so that some
			// sets stay quiet; the later rounds reach every set.
			for i := 0; i < 1+round; i++ {
				before := [2][]uint64{slices.Clone(l1.lru), slices.Clone(l2.lru)}
				lv := levels[r.Intn(2)]
				addr := 0x100000 + uint64(r.Intn(8+32*round))*8
				switch r.Intn(4) {
				case 0:
					lv.c.Read(addr, 8)
					lv.check("Read", addr)
				case 1:
					lv.c.Write(addr, 8, r.Uint64())
					lv.check("Write", addr)
				case 2:
					lv.ReadLine(addr&^63, line)
				case 3:
					r.Read(line)
					lv.WriteLine(addr&^63, line)
				}
				for k, c := range []*Cache{l1, l2} {
					for j, stamp := range c.lru {
						if stamp < before[k][j] {
							t.Fatalf("seed %d: %s line %d: stamp fell from %d to %d", seed, c.cfg.Name, j, before[k][j], stamp)
						}
					}
				}
			}
			for k, lv := range levels {
				to := lv.c.Snapshot()
				for j := range lv.c.tags {
					if quiet, looked := to.QuietSince(from[k].Clock, j), lv.lookedUp[j/lv.c.cfg.Ways]; quiet == looked {
						t.Fatalf("seed %d round %d: %s line %d: quiet %v, set looked up %v", seed, round, lv.c.cfg.Name, j, quiet, looked)
					}
				}
			}
		}
	}
}
