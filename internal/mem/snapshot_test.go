package mem

import "testing"

// TestMemorySnapshotCopyOnWrite pins the COW contract: a snapshot's
// pages are immutable once taken — post-snapshot stores clone the page
// before writing — and Restore rewinds to the snapshot's contents while
// keeping the snapshot intact for further restores.
func TestMemorySnapshotCopyOnWrite(t *testing.T) {
	m := testMemory()
	line := make([]byte, 64)
	line[0] = 0xaa
	m.WriteLine(0x100000, line)

	s := m.Snapshot()

	// A store to a snapshotted page must not change the snapshot.
	line[0] = 0xbb
	m.WriteLine(0x100000, line)
	if got := m.ReadWord(0x100000, 1); got != 0xbb {
		t.Fatalf("live memory after write = %#x", got)
	}
	if m.pages[0x100000/PageSize] == s.pages[0x100000/PageSize] {
		// The written page must have been cloned away from the snapshot.
		t.Error("post-snapshot write mutated a snapshot-shared page in place")
	}
	if got := s.pages[0x100000/PageSize][0]; got != 0xaa {
		t.Errorf("snapshot byte after live write = %#x, want 0xaa", got)
	}

	// A store to a fresh page after the snapshot must disappear again on
	// restore (absent page == all zeros).
	line[0] = 0xcc
	m.WriteLine(0x180000, line)

	m.Restore(s)
	if got := m.ReadWord(0x100000, 1); got != 0xaa {
		t.Errorf("restored byte = %#x, want 0xaa", got)
	}
	if got := m.ReadWord(0x180000, 1); got != 0 {
		t.Errorf("page written after snapshot survived restore: %#x", got)
	}
	if !m.StateEquals(s) {
		t.Error("restored memory not StateEquals its snapshot")
	}

	// Dirty and restore again: the snapshot must still be intact.
	line[0] = 0xdd
	m.WriteLine(0x100000, line)
	m.Restore(s)
	if got := m.ReadWord(0x100000, 1); got != 0xaa {
		t.Errorf("second restore = %#x, want 0xaa", got)
	}
}

// TestMemoryStateEqualsAbsentIsZero: an absent page and an all-zero
// page are the same observable state, in both directions.
func TestMemoryStateEqualsAbsentIsZero(t *testing.T) {
	m := testMemory()
	s := m.Snapshot() // empty

	zero := make([]byte, 64)
	m.WriteLine(0x100000, zero)
	if !m.StateEquals(s) {
		t.Error("writing zeros must not break state equality with an empty snapshot")
	}
	zero[5] = 1
	m.WriteLine(0x100000, zero)
	if m.StateEquals(s) {
		t.Error("nonzero byte undetected against an empty snapshot")
	}

	m2 := testMemory()
	line := make([]byte, 64)
	line[0] = 7
	m2.WriteLine(0x100000, line)
	s2 := m2.Snapshot()
	fresh := testMemory()
	if fresh.StateEquals(s2) {
		t.Error("empty memory claimed equality with a nonzero snapshot")
	}
}

// TestCacheRestoreZeroesStaleBuffers is the buffer-reuse regression
// test: restoring a snapshot whose line held zeros into a cache whose
// line holds data must bring the zeros back, not keep stale bytes — a
// later FlipDataBit flips whatever bytes the line holds.
func TestCacheRestoreZeroesStaleBuffers(t *testing.T) {
	_, _, l1 := newHierarchy()
	s := l1.Snapshot() // cold cache: no line has a data buffer

	// Fill a line with nonzero data, then rewind to the cold snapshot.
	l1.Write(0x100000, 8, 0xffffffffffffffff)
	l1.Restore(s)
	if !l1.StateEquals(s) {
		t.Fatal("restored cache not StateEquals its snapshot")
	}

	// The stale buffer must read as zeros through a flip-then-snapshot:
	// flipping bit 0 on the restored cache and on a genuinely cold cache
	// must produce identical snapshots.
	l1.FlipDataBit(0)
	_, _, cold := newHierarchy()
	cold.FlipDataBit(0)
	if !deepState(l1).Equal(deepState(cold)) {
		t.Error("stale line bytes leaked through restore into the flipped state")
	}
}

// TestCacheComparisonCoversWholeLine: no byte of a line's data may
// escape the equality relations. The old per-line buffers were
// compared only over a prefix length, so a differing trailing byte
// could slip through; chunks compare every byte, and this pins it: flipping the LAST bit of the LAST line's data must
// break both StateEquals and strict Equal against a prior snapshot.
func TestCacheComparisonCoversWholeLine(t *testing.T) {
	_, _, l1 := newHierarchy()
	// Make the last line valid so StateEquals compares its data.
	cfg := l1.Config()
	lastLine := uint64(l1.Sets()*cfg.Ways - 1)
	per := uint64(l1.TagWidth() + 2)
	l1.FlipTagBit(lastLine*per + uint64(l1.TagWidth())) // set its valid bit
	s := l1.Snapshot()
	if !l1.StateEquals(s) || !l1.Snapshot().Equal(s) {
		t.Fatal("cache must equal its own snapshot")
	}
	l1.FlipDataBit(l1.DataBitCount() - 1) // last bit of the last line
	if l1.StateEquals(s) {
		t.Error("StateEquals missed a flipped tail byte of the last line")
	}
	if l1.Snapshot().Equal(s) {
		t.Error("strict Equal missed a flipped tail byte of the last line")
	}
	l1.FlipDataBit(l1.DataBitCount() - 1)
	if !l1.StateEquals(s) {
		t.Error("flipping the bit back must restore equality")
	}
}

// TestCacheDeltaRestoreBitExact: repeated restores from one snapshot
// must be indistinguishable from a restore into a new cache, including
// when the interleaved work evicts, writes back, and flips bits; and a
// restore from a *different* snapshot, and back, must be bit-exact too.
func TestCacheDeltaRestoreBitExact(t *testing.T) {
	_, _, l1 := newHierarchy()
	for i := uint64(0); i < 16; i++ {
		l1.Write(0x100000+i*64, 8, i|0xa0)
	}
	s := l1.Snapshot()
	for round := 0; round < 3; round++ {
		// Dirty a different slice of state each round.
		for i := uint64(0); i < 32; i++ {
			l1.Write(0x110000+i*64+uint64(round)*0x2000, 8, ^i)
		}
		l1.FlipDataBit(uint64(round) * 131)
		l1.FlipTagBit(uint64(round) * 7)
		l1.Restore(s)
		if !deepState(l1).Equal(s) {
			t.Fatalf("round %d: delta restore is not bit-exact", round)
		}
	}
	// Restore from a different snapshot, then from s again.
	l1.Write(0x140000, 8, 0x1234)
	s2 := l1.Snapshot()
	l1.Write(0x150000, 8, 0x5678)
	l1.Restore(s2)
	if !deepState(l1).Equal(s2) {
		t.Fatal("restore from second snapshot not bit-exact")
	}
	l1.Restore(s)
	if !deepState(l1).Equal(s) {
		t.Fatal("switching back to first snapshot not bit-exact")
	}
}

// TestCacheSnapshotRoundTrip: dirty the hierarchy, snapshot, keep
// running, restore, and require strict snapshot equality plus
// behavioral equality.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	_, l2, l1 := newHierarchy()
	for i := uint64(0); i < 64; i++ {
		l1.Write(0x100000+i*64, 8, i*0x0101010101010101)
	}
	s1, s2 := l1.Snapshot(), l2.Snapshot()

	for i := uint64(0); i < 64; i++ {
		l1.Write(0x120000+i*64, 8, ^i)
	}
	l1.Restore(s1)
	l2.Restore(s2)
	if !deepState(l1).Equal(s1) || !deepState(l2).Equal(s2) {
		t.Error("cache snapshot round trip not bit-exact")
	}
	if !l1.StateEquals(s1) || !l2.StateEquals(s2) {
		t.Error("restored caches not StateEquals their snapshots")
	}
}
