// Package journal provides the durable, append-only record log behind
// crash-tolerant campaign runs. Each record is one checksummed JSONL
// line handed to the kernel in a single write call, so a record whose
// Write returned survives the death of the process (SIGKILL included);
// Sync makes everything written so far survive power loss as well, and
// Append is a Write followed by a Sync.
//
// A journal is one file, only ever appended to. Recovery reads the
// longest valid prefix: a torn tail (a partial line from a write cut
// short by a crash) or a checksum mismatch ends the replay at the last
// intact record. Open additionally compacts a torn tail by atomically
// rewriting the valid prefix (temp file in the same directory, fsync,
// rename), so the tail never grows back into later records.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Record is one replayed journal entry.
type Record struct {
	Kind string
	Data json.RawMessage
}

// line is the on-disk shape of one record.
type line struct {
	K   string          `json:"k"`
	Sum string          `json:"sum"`
	V   json.RawMessage `json:"v"`
}

// checksum covers the kind and the serialized payload, so a record
// cannot silently change type or content.
func checksum(kind string, data []byte) string {
	h := crc32.NewIEEE()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(data)
	return fmt.Sprintf("%08x", h.Sum32())
}

// maxLineBytes bounds a single record line during replay.
const maxLineBytes = 16 << 20

// Options tunes a journal writer; it has no fields left.
type Options struct{}

// Writer appends records to the journal. Safe for concurrent use.
type Writer struct {
	// guarded by mu (the methods, not the fields, synchronize)
	mu    chan struct{} // 1-buffered semaphore used as a mutex
	f     *os.File
	stats Stats
}

// Stats counts what a Writer has done since Open: records and bytes
// written, and fsyncs of the journal file (Sync and Close each cost
// one). The counts are exact and repeat run to run.
type Stats struct {
	Records int64
	Syncs   int64
	Bytes   int64
}

func (s Stats) String() string {
	return fmt.Sprintf("%d records, %d fsyncs, %d bytes", s.Records, s.Syncs, s.Bytes)
}

// Stats returns the writer's counters.
func (w *Writer) Stats() Stats {
	w.mu <- struct{}{}
	defer func() { <-w.mu }()
	return w.stats
}

// scan reads the journal file, returning the valid records, the raw
// bytes of the valid prefix, and whether a torn or corrupt tail was
// dropped. A missing file returns os.ErrNotExist.
func scan(path string) (recs []Record, valid []byte, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	for sc.Scan() {
		raw := sc.Bytes()
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			return recs, valid, true, nil
		}
		if l.Sum != checksum(l.K, l.V) {
			return recs, valid, true, nil
		}
		recs = append(recs, Record{Kind: l.K, Data: l.V})
		valid = append(valid, raw...)
		valid = append(valid, '\n')
	}
	if sc.Err() != nil {
		// An over-long or unreadable tail is treated as torn, not fatal:
		// the valid prefix is still intact on disk.
		return recs, valid, true, nil
	}
	// Anything past the intact lines (a final line without its '\n', a
	// "\r\n" the scanner dropped) is a torn tail too.
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, false, err
	}
	return recs, valid, fi.Size() != int64(len(valid)), nil
}

// Scan replays the journal at path, stopping at the first torn or
// corrupt record. A journal that does not exist replays as empty.
func Scan(path string) ([]Record, error) {
	recs, _, _, err := scan(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return recs, err
}

// Open replays the journal at path and opens it for appending. A torn
// tail is first compacted: the valid prefix is rewritten to a temp file
// in the same directory, fsync'd, and renamed over the journal, so
// recovery itself is crash-safe. The returned records are the replayed
// valid prefix (nil for a fresh journal). A journal that continues in a
// "<path>.1" file was written by an older version, which rotated into
// numbered segments, and is refused.
func Open(path string, _ Options) (*Writer, []Record, error) {
	if _, err := os.Stat(path + ".1"); err == nil {
		return nil, nil, fmt.Errorf("journal %s: %s.1 exists: the journal was written by an older version that split it into segments; remove both", path, path)
	}
	recs, valid, torn, err := scan(path)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return nil, nil, err
	}
	if torn {
		if err := AtomicWriteFile(path, valid); err != nil {
			return nil, nil, fmt.Errorf("journal %s: compacting torn tail: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if fresh {
		// Just created: persist its directory entry.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return &Writer{mu: make(chan struct{}, 1), f: f}, recs, nil
}

// Append durably writes one record: Write, then Sync.
func (w *Writer) Append(kind string, v any) error {
	if err := w.Write(kind, v); err != nil {
		return err
	}
	return w.Sync()
}

// Sync makes every record written so far durable against power loss.
func (w *Writer) Sync() error {
	w.mu <- struct{}{}
	defer func() { <-w.mu }()
	w.stats.Syncs++
	return w.f.Sync()
}

// Write hands one record to the kernel in a single write call, without
// an fsync: the record survives the death of this process, and a later
// Sync (or Close) makes it survive power loss, which until then tears
// at most the unsynced tail.
func (w *Writer) Write(kind string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l := line{K: kind, Sum: checksum(kind, data), V: data}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&l); err != nil { // Encode appends the '\n'
		return err
	}

	w.mu <- struct{}{}
	defer func() { <-w.mu }()
	n, err := w.f.Write(buf.Bytes())
	w.stats.Bytes += int64(n)
	if err != nil {
		return err
	}
	w.stats.Records++
	return nil
}

// Close flushes and closes the journal file.
func (w *Writer) Close() error {
	w.mu <- struct{}{}
	defer func() { <-w.mu }()
	w.stats.Syncs++
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Remove deletes the journal at path. A missing journal is not an
// error, so Remove is safe after partial cleanup.
func Remove(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// AtomicWriteFile replaces path with data crash-safely: write a temp
// file in the same directory, fsync it, rename it over path, and fsync
// the directory so the rename itself is durable. Torn-tail compaction,
// study persistence and the artifact cache all write through it.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	// Chmod before Sync: the permission bits are inode metadata, and
	// fsync only guarantees durability of what was already applied. A
	// chmod after the fsync could be lost in a crash, leaving the
	// renamed file with the 0o600 CreateTemp mode.
	if err := tmp.Chmod(0o644); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// MkdirAllSync is os.MkdirAll followed by an fsync of each directory
// that may have just been created (every component from the first
// missing one down) plus the parent of the topmost new directory.
// Plain MkdirAll leaves the new dentries only in the page cache: a
// crash right after it returns can lose the whole tree, and with it
// any journal or study file later written inside — the files would be
// durable but unreachable. Existing directories cost one extra fsync
// of the leaf and its parent.
func MkdirAllSync(path string, perm os.FileMode) error {
	if err := os.MkdirAll(path, perm); err != nil {
		return err
	}
	// Walk from the leaf up, syncing each component and its parent.
	// Stopping at the filesystem root (Dir(p) == p) bounds the walk;
	// syncing already-existing ancestors is harmless.
	for p := filepath.Clean(path); ; {
		if err := syncDir(p); err != nil {
			return err
		}
		parent := filepath.Dir(p)
		if parent == p {
			return nil
		}
		p = parent
	}
}

// syncDir fsyncs a directory so renames and file creations in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
