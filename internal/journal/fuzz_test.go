package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// intactPrefix is the fuzz target's reference replay, written without
// the scanner: the records of the leading run of lines that decode and
// carry their own checksum.
func intactPrefix(data []byte) []Record {
	var recs []Record
	for len(data) > 0 {
		raw, rest, _ := bytes.Cut(data, []byte("\n"))
		raw = bytes.TrimSuffix(raw, []byte("\r")) // as bufio.ScanLines does
		var l line
		if json.Unmarshal(raw, &l) != nil || l.Sum != checksum(l.K, l.V) {
			break
		}
		recs = append(recs, Record{Kind: l.K, Data: l.V})
		data = rest
	}
	return recs
}

func sameRecords(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return x.Kind == y.Kind && bytes.Equal(x.Data, y.Data)
	})
}

// FuzzJournalScan hands arbitrary bytes to the journal as its one
// segment file — what a crash, a power loss or a bad disk may leave.
// Scan and Open must not panic, must replay exactly the leading intact
// lines, and the journal must go on working after them: Open, Write,
// Sync, and a Scan that returns the old records plus the new one.
func FuzzJournalScan(f *testing.F) {
	// The torn-tail tests' files: intact, cut inside the last record, cut
	// at its newline, one payload byte flipped, a blank line in the
	// middle.
	seedPath := filepath.Join(f.TempDir(), "seed.jsonl")
	w, _, err := Open(seedPath, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i, name := range []string{"aaaa", "bbbb", "cccc", "dddd", "eeee"} {
		if err := w.Write("cell", payload{Name: name, N: i}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	intact, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(intact)
	f.Add(intact[:len(intact)-7])
	f.Add(intact[:len(intact)-1])
	f.Add(bytes.Replace(intact, []byte("bbbb"), []byte("bXbb"), 1))
	f.Add(bytes.Replace(intact, []byte("\n"), []byte("\n\n"), 1))
	f.Add(bytes.ReplaceAll(intact, []byte("\n"), []byte("\r\n")))
	f.Add([]byte(`{"k":"cell","sum":"00000000"}` + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := intactPrefix(data)
		got, err := Scan(path)
		if err != nil || !sameRecords(got, want) {
			t.Fatalf("Scan replayed %d records (%v), the intact prefix has %d", len(got), err, len(want))
		}
		w, got, err := Open(path, Options{})
		if err != nil || !sameRecords(got, want) {
			t.Fatalf("Open replayed %d records (%v), the intact prefix has %d", len(got), err, len(want))
		}
		if err := w.Write("next", payload{Name: "after the prefix", N: len(want)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err = Scan(path)
		if err != nil || len(got) != len(want)+1 || !sameRecords(got[:len(want)], want) || got[len(want)].Kind != "next" {
			t.Fatalf("after Open, Write, Sync: %d records (%v), want the %d replayed and the new one", len(got), err, len(want))
		}
	})
}
