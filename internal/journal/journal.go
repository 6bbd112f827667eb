// Package journal provides the durable, append-only record log behind
// crash-tolerant campaign runs. Each record is one checksummed JSONL
// line handed to the kernel in a single write call, so a record whose
// Write returned survives the death of the process (SIGKILL included);
// Sync makes everything written so far survive power loss as well, and
// Append is a Write followed by a Sync.
//
// A journal is a sequence of segment files: the base path holds the
// first segment and rotation continues in "<path>.1", "<path>.2", ...
// once a segment exceeds the size limit. Segments are only ever
// appended to; rotation creates the next segment and fsyncs the
// directory, so the segment chain itself survives crashes.
//
// Recovery reads the longest valid prefix: a torn tail (a partial line
// from a write cut short by a crash) or a checksum mismatch ends the
// replay at the last intact record. Open additionally compacts a torn
// final segment by atomically rewriting its valid prefix (temp file in
// the same directory, fsync, rename), so the tail never grows back into
// later records.
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

// DefaultSegmentBytes bounds a segment before rotation. Records are a
// few hundred bytes, so the default keeps segments comfortably
// readable while never rotating in laptop-scale studies.
const DefaultSegmentBytes = 64 << 20

// maxLineBytes bounds a single record line during replay.
const maxLineBytes = 16 << 20

// Options tunes a journal writer.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this size (<= 0: DefaultSegmentBytes).
	SegmentBytes int64
}

// Writer appends records to the journal. Safe for concurrent use.
type Writer struct {
	base  string
	limit int64

	// guarded by mu (the methods, not the fields, synchronize)
	mu    chan struct{} // 1-buffered semaphore used as a mutex
	f     *os.File
	seg   int
	size  int64
	stats Stats
}

// Stats counts what a Writer has done since Open: records and bytes
// written, and fsyncs of a segment file (Sync, rotation and Close each
// cost one). The counts are exact and repeat run to run.
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

// segmentPath names segment i of the journal at base.
func segmentPath(base string, i int) string {
	if i == 0 {
		return base
	}
	return fmt.Sprintf("%s.%d", base, i)
}

// scanSegment reads one segment file, returning the valid records, the
// raw bytes of the valid prefix, and whether a torn or corrupt tail was
// dropped. A missing file returns os.ErrNotExist.
func scanSegment(path string) (recs []Record, valid []byte, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	var off int64
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
		off += int64(len(raw)) + 1
		valid = append(valid, raw...)
		valid = append(valid, '\n')
	}
	if sc.Err() != nil {
		// An over-long or unreadable tail is treated as torn, not fatal:
		// the valid prefix is still intact on disk.
		return recs, valid, true, nil
	}
	// A file that does not end in '\n' has a torn final line that the
	// scanner surfaced as a (checksum-failing) record or as no record;
	// either way it was handled above. Detect a trailing partial line
	// that happens to be valid JSON-free garbage of zero length.
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, false, err
	}
	if fi.Size() != off {
		torn = true
	}
	return recs, valid, torn, nil
}

// Scan replays the journal at path: every segment in order, stopping at
// the first torn or corrupt record. A journal that does not exist
// replays as empty.
func Scan(path string) ([]Record, error) {
	recs, _, _, err := scanAll(path)
	return recs, err
}

// scanAll replays all segments, returning the records, the index of the
// last existing segment (-1 when none), and whether that segment has a
// torn tail. A torn segment that is not the last one is an error: by
// construction appends are sequential, so later segments after a torn
// one mean the journal was tampered with or mis-assembled.
func scanAll(path string) (recs []Record, lastSeg int, torn bool, err error) {
	lastSeg = -1
	for seg := 0; ; seg++ {
		rs, _, segTorn, err := scanSegment(segmentPath(path, seg))
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		if err != nil {
			return nil, -1, false, err
		}
		if torn { // a previous segment was torn yet this one exists
			return nil, -1, false, fmt.Errorf("journal %s: segment %d is corrupt but segment %d exists", path, seg-1, seg)
		}
		recs = append(recs, rs...)
		lastSeg, torn = seg, segTorn
	}
	return recs, lastSeg, torn, nil
}

// Open replays the journal at path and opens it for appending. A torn
// final segment is first compacted: its valid prefix is rewritten to a
// temp file in the same directory, fsync'd, and renamed over the
// segment, so recovery itself is crash-safe. The returned records are
// the replayed valid prefix (nil for a fresh journal).
func Open(path string, opts Options) (*Writer, []Record, error) {
	limit := opts.SegmentBytes
	if limit <= 0 {
		limit = DefaultSegmentBytes
	}
	recs, lastSeg, torn, err := scanAll(path)
	if err != nil {
		return nil, nil, err
	}
	seg := lastSeg
	if seg < 0 {
		seg = 0
	}
	segPath := segmentPath(path, seg)
	if torn {
		_, valid, _, err := scanSegment(segPath)
		if err != nil {
			return nil, nil, err
		}
		if err := atomicWriteFile(segPath, valid); err != nil {
			return nil, nil, fmt.Errorf("journal %s: compacting torn segment: %w", path, err)
		}
	}
	f, err := os.OpenFile(segPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if lastSeg < 0 {
		// First segment just created: persist its directory entry.
		if err := syncDir(filepath.Dir(segPath)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &Writer{
		base:  path,
		limit: limit,
		mu:    make(chan struct{}, 1),
		f:     f,
		seg:   seg,
		size:  fi.Size(),
	}
	return w, recs, nil
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
// at most the unsynced tail. When the current segment is full, Write
// first rotates to the next segment file.
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
	if w.size > 0 && w.size+int64(buf.Len()) > w.limit {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	n, err := w.f.Write(buf.Bytes())
	w.size += int64(n)
	w.stats.Bytes += int64(n)
	if err != nil {
		return err
	}
	w.stats.Records++
	return nil
}

// rotate closes the current segment and starts the next one. Called
// with the writer lock held.
func (w *Writer) rotate() error {
	w.stats.Syncs++
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	next := segmentPath(w.base, w.seg+1)
	f, err := os.OpenFile(next, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(next)); err != nil {
		f.Close()
		return err
	}
	w.f, w.seg, w.size = f, w.seg+1, 0
	return nil
}

// Close flushes and closes the active segment.
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

// Remove deletes every segment of the journal at path. Missing
// segments are not an error, so Remove is safe after partial cleanup.
func Remove(path string) error {
	for seg := 0; ; seg++ {
		err := os.Remove(segmentPath(path, seg))
		if errors.Is(err, os.ErrNotExist) {
			if seg == 0 {
				continue // base may be gone while .1 remains; keep probing
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// atomicWriteFile replaces path with data crash-safely: write a temp
// file in the same directory, fsync it, rename it over path, and fsync
// the directory so the rename itself is durable.
func atomicWriteFile(path string, data []byte) error {
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

// AtomicWriteFile is the exported crash-safe replace used by study
// persistence: temp file in the same directory, fsync, rename, fsync
// the directory.
func AtomicWriteFile(path string, data []byte) error {
	return atomicWriteFile(path, data)
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
