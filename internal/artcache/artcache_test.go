package artcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openTest(t *testing.T, opt Options) *Cache {
	t.Helper()
	c, err := Open(filepath.Join(t.TempDir(), "cache"), opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openTest(t, Options{})
	payload := []byte("golden artifact bytes \x00\xff binary ok")
	if err := c.Put("unit/a15/qsort/O2", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("unit/a15/qsort/O2")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want stored payload", got, ok)
	}
	if _, ok := c.Get("unit/a15/qsort/O3"); ok {
		t.Fatal("Get of unstored key hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// entryFile returns the single .art file in the cache dir.
func entryFile(t *testing.T, c *Cache) string {
	t.Helper()
	ents, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == entrySuffix {
			files = append(files, filepath.Join(c.Dir(), e.Name()))
		}
	}
	if len(files) != 1 {
		t.Fatalf("want exactly 1 entry file, got %d", len(files))
	}
	return files[0]
}

// TestFlippedBitDetected flips every byte of a stored entry in turn
// (header and payload) and asserts each corruption is detected,
// reported as a miss, and the entry discarded — never returned.
func TestFlippedBitDetected(t *testing.T) {
	c := openTest(t, Options{})
	payload := []byte("checkpoint stream payload, long enough to matter")
	if err := c.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, c)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pristine {
		damaged := bytes.Clone(pristine)
		damaged[i] ^= 0x40
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get("k"); ok {
			t.Fatalf("byte %d flipped: Get returned %q, want corrupt miss", i, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("byte %d flipped: corrupt entry not discarded", i)
		}
		// Rebuild transparently, as a filler would.
		if err := c.Put("k", payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Corrupt != uint64(len(pristine)) {
		t.Fatalf("corrupt count = %d, want %d", st.Corrupt, len(pristine))
	}
	if got, ok := c.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatal("rebuilt entry unreadable")
	}
}

// TestTruncationDetected truncates a stored entry at every length and
// asserts detection; a truncated entry must never decode.
func TestTruncationDetected(t *testing.T) {
	c := openTest(t, Options{})
	payload := []byte("short payload")
	if err := c.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, c)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(pristine); n++ {
		if err := os.WriteFile(path, pristine[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get("k"); ok {
			t.Fatalf("truncated to %d bytes: Get returned %q", n, got)
		}
		if err := c.Put("k", payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGetOrFillSingleFlight launches many goroutines missing on one
// key and asserts fill ran exactly once and everyone saw its bytes.
// Run with -race this also checks the flight table's locking.
func TestGetOrFillSingleFlight(t *testing.T) {
	c := openTest(t, Options{})
	var fills atomic.Int32
	var started sync.WaitGroup
	release := make(chan struct{})
	fill := func() ([]byte, error) {
		fills.Add(1)
		<-release // hold the flight open so every goroutine piles up
		return []byte("built once"), nil
	}
	const n = 16
	results := make([][]byte, n)
	errs := make([]error, n)
	var done sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			results[i], errs[i] = c.GetOrFill("shared", fill)
		}(i)
	}
	started.Wait()
	time.Sleep(10 * time.Millisecond) // let the stragglers reach the flight table
	close(release)
	done.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || string(results[i]) != "built once" {
			t.Fatalf("goroutine %d: %q, %v", i, results[i], errs[i])
		}
	}
	// A later call hits disk, not fill.
	got, err := c.GetOrFill("shared", func() ([]byte, error) {
		t.Error("fill ran on warm cache")
		return nil, nil
	})
	if err != nil || string(got) != "built once" {
		t.Fatalf("warm GetOrFill = %q, %v", got, err)
	}
}

// TestGetOrFillErrorShared asserts a failed fill propagates to every
// waiter and stores nothing, and that a retry can succeed.
func TestGetOrFillErrorShared(t *testing.T) {
	c := openTest(t, Options{})
	boom := fmt.Errorf("compile failed")
	if _, err := c.GetOrFill("k", func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want fill error", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed fill left an entry behind")
	}
	got, err := c.GetOrFill("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(got) != "ok" {
		t.Fatalf("retry = %q, %v", got, err)
	}
}

// TestEvictionUnderSizePressure fills past MaxBytes and asserts the
// oldest entries go first, the newest stays, and evicted keys rebuild
// cleanly.
func TestEvictionUnderSizePressure(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 1024)
	// Each entry file is ~1KB + header; allow about three.
	c := openTest(t, Options{MaxBytes: 3600})
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("entry-%d", i)
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is unambiguous on coarse
		// filesystem timestamp granularity.
		path := c.entryPath(key)
		old := time.Unix(1700000000+int64(i)*10, 0)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	// Force one more Put to apply eviction against the backdated set.
	if err := c.Put("entry-final", payload); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under size pressure: %+v", st)
	}
	if _, ok := c.Get("entry-final"); !ok {
		t.Fatal("just-written entry was evicted")
	}
	if _, ok := c.Get("entry-0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	// Rebuild an evicted key as the scheduler would.
	got, err := c.GetOrFill("entry-0", func() ([]byte, error) { return payload, nil })
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("rebuild after eviction = %v", err)
	}
}

// TestEvictionNeverRemovesJustWritten puts one payload larger than
// MaxBytes and asserts it remains readable: the bound trims history,
// not the entry the caller is about to use.
func TestEvictionNeverRemovesJustWritten(t *testing.T) {
	c := openTest(t, Options{MaxBytes: 64})
	payload := bytes.Repeat([]byte{1}, 4096)
	if err := c.Put("big", payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get("big"); !ok || !bytes.Equal(got, payload) {
		t.Fatal("oversized entry evicted before use")
	}
}

// TestNilCacheDisabled: a nil *Cache is the documented "caching off"
// state — every operation degrades to a no-op or a direct fill.
func TestNilCacheDisabled(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	if err := c.Put("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetOrFill("k", func() ([]byte, error) { return []byte("direct"), nil })
	if err != nil || string(got) != "direct" {
		t.Fatalf("nil GetOrFill = %q, %v", got, err)
	}
	if !c.Stats().Empty() {
		t.Fatal("nil cache stats non-empty")
	}
	if c.Dir() != "" {
		t.Fatal("nil cache dir")
	}
}

// TestKeyCollisionMismatchIsMiss writes an entry, then renames it to
// the path of a different key to simulate a filename collision; the
// key echo must reject it.
func TestKeyCollisionMismatchIsMiss(t *testing.T) {
	c := openTest(t, Options{})
	if err := c.Put("original", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.entryPath("original"), c.entryPath("imposter")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("imposter"); ok {
		t.Fatal("entry for a different key was returned")
	}
	if c.Stats().Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt", c.Stats())
	}
}

func TestStatsAdd(t *testing.T) {
	var total Stats
	total.Add(Stats{Hits: 1, Misses: 2, Puts: 3, Evictions: 4, Corrupt: 5})
	total.Add(Stats{Hits: 10, Misses: 20, Puts: 30, Evictions: 40, Corrupt: 50})
	want := Stats{Hits: 11, Misses: 22, Puts: 33, Evictions: 44, Corrupt: 55}
	if total != want {
		t.Fatalf("Add = %+v, want %+v", total, want)
	}
	if total.Empty() {
		t.Fatal("non-zero stats Empty")
	}
}

// FuzzDecodeEntry feeds arbitrary bytes to the entry decoder, which
// reads whatever a shared cache directory holds. It must never panic,
// must return errCorrupt or a payload whose encoding under the key is
// exactly the input (the frame has one spelling per payload), and must
// return any payload it is given back from that payload's encoding.
func FuzzDecodeEntry(f *testing.F) {
	const key = "unit/a15/qsort/O2"
	entry := encodeEntry(key, []byte("golden artifact bytes \x00\xff binary ok"))
	f.Add(entry, key, []byte("payload"))
	f.Add(entry, "unit/a72/qsort/O2", []byte{}) // a renamed entry or filename-hash collision
	f.Add(entry[:len(entry)-1], key, []byte{0})
	for _, n := range []int{0, 7, 8, 12, 12 + len(key), 20 + len(key), 52 + len(key)} {
		f.Add(entry[:n], key, []byte(nil))
	}
	long := append(append([]byte{}, entry...), 0)
	f.Add(long, key, []byte("x")) // trailing garbage
	f.Fuzz(func(t *testing.T, raw []byte, key string, payload []byte) {
		got, err := decodeEntry(raw, key)
		switch {
		case err != nil && (err != errCorrupt || got != nil):
			t.Fatalf("decode: %v %q, want errCorrupt and no payload", err, got)
		case err == nil && !bytes.Equal(encodeEntry(key, got), raw):
			t.Fatalf("decode accepted %x as %q, which encodes otherwise", raw, got)
		}
		if got, err := decodeEntry(encodeEntry(key, payload), key); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %q: %q %v", payload, got, err)
		}
	})
}
