package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name string
	N    int
}

func mustAppend(t *testing.T, w *Writer, kind string, v any) {
	t.Helper()
	if err := w.Append(kind, v); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAndScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, w, "cell", payload{Name: fmt.Sprintf("r%d", i), N: i})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, r := range got {
		if r.Kind != "cell" {
			t.Errorf("record %d kind %q", i, r.Kind)
		}
		var p payload
		if err := json.Unmarshal(r.Data, &p); err != nil {
			t.Fatal(err)
		}
		if p.N != i {
			t.Errorf("record %d payload N=%d", i, p.N)
		}
	}
}

func TestReopenReplaysAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, "a", payload{N: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != "a" {
		t.Fatalf("replay after reopen: %+v", recs)
	}
	mustAppend(t, w, "b", payload{N: 2})
	w.Close()

	recs, err = Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Kind != "b" {
		t.Fatalf("after second append: %+v", recs)
	}
}

// TestTornTailDropped simulates a crash mid-write: the journal must
// replay the valid prefix and Open must compact the torn tail away.
func TestTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, w, "cell", payload{N: i})
	}
	w.Close()

	// Tear the last record: drop its final 7 bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("torn journal replayed %d records, want 4", len(recs))
	}

	// Open compacts: the file on disk afterwards is exactly the valid
	// prefix, and appending continues cleanly.
	w, recs, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("open after tear replayed %d records, want 4", len(recs))
	}
	mustAppend(t, w, "cell", payload{N: 99})
	w.Close()
	recs, err = Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("after compaction + append: %d records, want 5", len(recs))
	}
	var p payload
	if err := json.Unmarshal(recs[4].Data, &p); err != nil {
		t.Fatal(err)
	}
	if p.N != 99 {
		t.Errorf("last record N=%d, want 99", p.N)
	}
}

// TestChecksumMismatchEndsReplay flips one byte inside a record's
// payload: the replay must stop at the corrupt record.
func TestChecksumMismatchEndsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, "cell", payload{Name: "aaaa", N: 1})
	mustAppend(t, w, "cell", payload{Name: "bbbb", N: 2})
	mustAppend(t, w, "cell", payload{Name: "cccc", N: 3})
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(data), "bbbb", "bXbb", 1)
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records past a corrupt one, want 1", len(recs))
	}
}

func TestRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, w, "cell", payload{Name: "record-payload", N: i})
	}
	w.Close()
	if err := Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("%s still exists after Remove", path)
	}
	// Removing a journal that never existed is fine.
	if err := Remove(filepath.Join(t.TempDir(), "nope.jsonl")); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := AtomicWriteFile(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Fatalf("content %q", data)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
	// The replaced file carries the intended 0o644, not the 0o600 the
	// temp file was born with (the Chmod must happen, and before the
	// fsync so the bits are durable).
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Mode().Perm(); got != 0o644 {
		t.Errorf("file mode %v, want -rw-r--r--", got)
	}
}

func TestMkdirAllSync(t *testing.T) {
	root := t.TempDir()
	nested := filepath.Join(root, "a", "b", "c")
	if err := MkdirAllSync(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(nested)
	if err != nil {
		t.Fatal(err)
	}
	if !info.IsDir() {
		t.Fatalf("%s is not a directory", nested)
	}
	// Idempotent on an existing tree, like os.MkdirAll.
	if err := MkdirAllSync(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	// A file in the way surfaces the MkdirAll error.
	blocked := filepath.Join(root, "file")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MkdirAllSync(filepath.Join(blocked, "sub"), 0o755); err == nil {
		t.Fatal("MkdirAllSync through a regular file did not fail")
	}
}

// TestOpenRefusesSegmentedJournal: an older version rotated a journal
// into "<path>.1", "<path>.2", ... Replaying only the first file would
// silently drop the rest, so Open refuses and names the files.
func TestOpenRefusesSegmentedJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	for _, p := range []string{path, path + ".1"} {
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Open(path, Options{}); err == nil || !strings.Contains(err.Error(), "older version") {
		t.Fatalf("Open of a segmented journal: %v, want a refusal naming the older version", err)
	}
}

// TestWriteSyncStats pins the split Append is made of: Write hands the
// record to the kernel (a reader in the same or any later process sees
// it) without an fsync, Sync costs exactly one, and Stats counts both.
func TestWriteSyncStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Write("cell", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.Stats(), (Stats{Records: 5, Syncs: 0, Bytes: fi.Size()}); got != want {
		t.Fatalf("after 5 writes: %+v, want %+v", got, want)
	}
	if recs, err := Scan(path); err != nil || len(recs) != 5 {
		t.Fatalf("unsynced records not readable: %d records, %v", len(recs), err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, "cell", payload{N: 5})
	if got := w.Stats(); got.Records != 6 || got.Syncs != 2 {
		t.Fatalf("after Sync and Append: %+v, want 6 records, 2 fsyncs", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats(); got.Syncs != 3 || got.String() != fmt.Sprintf("6 records, 3 fsyncs, %d bytes", got.Bytes) {
		t.Fatalf("after Close: %+v (%s), want 3 fsyncs", got, got)
	}
	if err := w.Write("cell", payload{}); err == nil {
		t.Fatal("write to a closed journal succeeded")
	}
	if got := w.Stats(); got.Records != 6 {
		t.Fatalf("failed write counted as a record: %+v", got)
	}
}

// TestPowerLossKeepsSyncedPrefix cuts a journal where a power loss
// could: at the size of each Sync and inside the unsynced tail after
// it. Everything synced replays, the torn tail is dropped, and the
// journal reopens, appends and replays again.
func TestPowerLossKeepsSyncedPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		size    int64
		records int
	}
	var synced []point
	n := 0
	for batch := 1; batch <= 4; batch++ {
		for i := 0; i < batch; i++ {
			if err := w.Write("cell", payload{Name: "record-payload", N: n}); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if batch == 4 {
			break // the last batch stays unsynced
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		synced = append(synced, point{w.Stats().Bytes, n})
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range synced {
		next := int64(len(data))
		if i+1 < len(synced) {
			next = synced[i+1].size
		}
		for _, cut := range []int64{p.size, (p.size + next) / 2} {
			lost := filepath.Join(t.TempDir(), "j.jsonl")
			if err := os.WriteFile(lost, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			lw, recs, err := Open(lost, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) < p.records || len(recs) >= n {
				t.Fatalf("cut at %d (synced size %d): replayed %d records, want at least the %d synced and fewer than all %d",
					cut, p.size, len(recs), p.records, n)
			}
			if err := lw.Write("cell", payload{N: -1}); err != nil {
				t.Fatal(err)
			}
			if err := lw.Sync(); err != nil {
				t.Fatal(err)
			}
			lw.Close()
			again, err := Scan(lost)
			if err != nil || len(again) != len(recs)+1 {
				t.Fatalf("cut at %d: %d records after reopen and append, want %d (%v)", cut, len(again), len(recs)+1, err)
			}
		}
	}
}
