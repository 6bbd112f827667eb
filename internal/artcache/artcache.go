// Package artcache is a content-addressed, on-disk artifact cache for
// prep-unit products: compiled binaries, golden run results, commit
// traces and serialized checkpoint streams. Entries
// are keyed by a canonical fingerprint string of everything that
// determines the artifact bytes; the cache never interprets the key
// beyond hashing it, so the study scheduler and distributed workers
// can share one directory.
//
// Guarantees:
//
//   - Crash-safe writes: every entry lands via temp+fsync+rename
//     (journal.AtomicWriteFile), so a SIGKILL mid-Put leaves either
//     the old state or the complete new entry, never a torn file.
//   - Integrity on load: each entry carries a header with a magic,
//     the full key, and a SHA-256 of the payload. A flipped bit, a
//     truncation, or a hash-collision key mismatch is detected on
//     Get, the entry is deleted, and the caller sees a plain miss —
//     corrupted cache state is never trusted, only rebuilt.
//   - Single-flight fills: GetOrFill deduplicates concurrent misses
//     on the same key within a process, so parallel cells sharing a
//     prep unit build it exactly once.
//   - A store that fails costs only time: GetOrFill hands out what
//     fill built even when the disk refuses it (full, read-only, gone),
//     and counts the refusal in Stats.FailedStores.
//
// The directory is unbounded: nothing is evicted, and a hit leaves its
// entry file untouched.
//
// The zero value of *Cache (nil) is a valid disabled cache: Get
// always misses, Put discards, and GetOrFill calls fill directly.
package artcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"sevsim/internal/journal"
)

// entryMagic begins every cache entry file. The version digit guards
// against reading entries written by an incompatible layout.
const entryMagic = "SEVART1\n"

// entrySuffix names cache entry files.
const entrySuffix = ".art"

// Options configures a cache directory; it has no fields left.
type Options struct{}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Puts    uint64
	Corrupt uint64
	// FailedStores counts payloads GetOrFill built but could not store.
	FailedStores uint64
}

// String renders the counters in one line.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d corrupt discarded, %d failed stores",
		s.Hits, s.Misses, s.Corrupt, s.FailedStores)
}

// Cache is a content-addressed artifact store rooted at one
// directory. All methods are safe for concurrent use; a nil *Cache is
// a valid disabled cache.
type Cache struct {
	dir string

	hits         atomic.Uint64
	misses       atomic.Uint64
	puts         atomic.Uint64
	corrupt      atomic.Uint64
	failedStores atomic.Uint64

	mu     sync.Mutex
	flight map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	data []byte
	err  error
}

// Open creates (if needed) and returns the cache rooted at dir. The
// directory is created crash-safely so entries written immediately
// after survive a power cut.
func Open(dir string, opt Options) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("artcache: empty directory")
	}
	if err := journal.MkdirAllSync(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artcache: %w", err)
	}
	return &Cache{dir: dir, flight: make(map[string]*flightCall)}, nil
}

// Dir returns the cache directory, or "" for a disabled cache.
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Puts:         c.puts.Load(),
		Corrupt:      c.corrupt.Load(),
		FailedStores: c.failedStores.Load(),
	}
}

// entryPath maps a key to its file: the SHA-256 of the key in hex.
// The full key is echoed inside the entry header and verified on Get,
// so even a hash collision degrades to a miss, not a wrong artifact.
func (c *Cache) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, fmt.Sprintf("%x%s", sum, entrySuffix))
}

// Get returns the payload stored under key, or (nil, false) on a
// miss. A corrupted, truncated, or mismatched entry is deleted and
// reported as a miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	data, ok := c.load(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return data, ok
}

func (c *Cache) load(key string) ([]byte, bool) {
	path := c.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false // missing or unreadable: plain miss
	}
	payload, err := decodeEntry(raw, key)
	if err != nil {
		// Never trust a damaged entry: discard it so the next fill
		// rebuilds, and count the discard so operators can see disk
		// trouble.
		c.corrupt.Add(1)
		os.Remove(path)
		return nil, false
	}
	return payload, true
}

// Put stores payload under key, crash-safely. Overwriting an existing
// entry is allowed and atomic.
func (c *Cache) Put(key string, payload []byte) error {
	if c == nil {
		return nil
	}
	if err := journal.AtomicWriteFile(c.entryPath(key), encodeEntry(key, payload)); err != nil {
		return fmt.Errorf("artcache: put: %w", err)
	}
	c.puts.Add(1)
	return nil
}

// Drop removes the entry for key and counts it as a corrupt discard.
// Callers use it when a payload passed the cache's checksum but failed
// semantic validation downstream (e.g. a stale or damaged bundle), so
// the next fill rebuilds from scratch.
func (c *Cache) Drop(key string) {
	if c == nil {
		return
	}
	if os.Remove(c.entryPath(key)) == nil {
		c.corrupt.Add(1)
	}
}

// GetOrFill returns the payload for key, building and storing it with
// fill on a miss. Concurrent calls for the same key are deduplicated:
// one caller runs fill, the rest block and share its result (a
// fill error is shared too, and nothing is stored). A payload that
// cannot be stored is still returned, to every caller, and counted in
// Stats.FailedStores. On a disabled (nil) cache it simply runs fill.
func (c *Cache) GetOrFill(key string, fill func() ([]byte, error)) ([]byte, error) {
	if c == nil {
		return fill()
	}
	c.mu.Lock()
	if fc, ok := c.flight[key]; ok {
		c.mu.Unlock()
		<-fc.done
		if fc.err != nil {
			return nil, fc.err
		}
		// The leader stored the entry; count the dedup as a hit — this
		// caller skipped a rebuild.
		c.hits.Add(1)
		return fc.data, nil
	}
	fc := &flightCall{done: make(chan struct{})}
	c.flight[key] = fc
	c.mu.Unlock()

	data, ok := c.Get(key)
	if ok {
		fc.data = data
		c.finish(key, fc)
		return data, nil
	}
	data, err := fill()
	if err == nil && c.Put(key, data) != nil {
		c.failedStores.Add(1)
	}
	fc.data, fc.err = data, err
	c.finish(key, fc)
	return data, err
}

func (c *Cache) finish(key string, fc *flightCall) {
	c.mu.Lock()
	delete(c.flight, key)
	c.mu.Unlock()
	close(fc.done)
}

// encodeEntry frames a payload for disk:
//
//	magic(8) | keyLen u32 | key | payloadLen u64 | sha256(payload) | payload
//
// The key echo turns a (vanishingly unlikely) filename-hash collision
// into a detectable mismatch; the checksum catches bit rot and the
// length catches truncation even when the tail happens to checksum.
func encodeEntry(key string, payload []byte) []byte {
	out := make([]byte, 0, len(entryMagic)+4+len(key)+8+sha256.Size+len(payload))
	out = append(out, entryMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(key)))
	out = append(out, key...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out
}

var errCorrupt = errors.New("artcache: corrupt entry")

func decodeEntry(raw []byte, key string) ([]byte, error) {
	if len(raw) < len(entryMagic)+4 || string(raw[:len(entryMagic)]) != entryMagic {
		return nil, errCorrupt
	}
	raw = raw[len(entryMagic):]
	keyLen := binary.LittleEndian.Uint32(raw[:4])
	raw = raw[4:]
	if uint64(len(raw)) < uint64(keyLen)+8+sha256.Size {
		return nil, errCorrupt
	}
	if string(raw[:keyLen]) != key {
		return nil, errCorrupt // filename hash collision or renamed entry
	}
	raw = raw[keyLen:]
	payloadLen := binary.LittleEndian.Uint64(raw[:8])
	raw = raw[8:]
	var sum [sha256.Size]byte
	copy(sum[:], raw[:sha256.Size])
	payload := raw[sha256.Size:]
	if uint64(len(payload)) != payloadLen {
		return nil, errCorrupt // truncated or trailing garbage
	}
	if sha256.Sum256(payload) != sum {
		return nil, errCorrupt // bit rot
	}
	return payload, nil
}
