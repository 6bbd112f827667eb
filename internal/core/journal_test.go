package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sevsim/internal/compiler"
	"sevsim/internal/journal"
	"sevsim/internal/machine"
)

// eventfulJournal records a real study journal with every kind of
// outcome in it — results, one quarantined unit (gsm at O2 fails to
// compile), one stuck cell (the watchdog fires on the first cell) — and
// returns the spec and the journal's records.
func eventfulJournal(t testing.TB) (Spec, []journal.Record) {
	t.Helper()
	orig := compileUnit
	t.Cleanup(func() { compileUnit = orig })
	compileUnit = func(src, name string, l compiler.OptLevel, tgt compiler.Target) (*machine.Program, error) {
		if name == "gsm" && l == compiler.O2 {
			return nil, errors.New("injected compile failure")
		}
		return orig(src, name, l, tgt)
	}
	spec := tinySpec(t)
	spec.Machines = spec.Machines[:1]
	spec.KeepGoing = true
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")

	stuck := spec
	stuck.CellTimeout = time.Nanosecond
	if _, err := stuck.RunCells(context.Background(), spec.Cells()[:1]); err != nil {
		t.Fatal(err)
	}
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 2 || !st.Failed[0].Stuck || st.Failed[1].Stage != "compile" {
		t.Fatalf("journal seed study did not fail as planned: %+v", st.Failed)
	}
	recs, err := journal.Scan(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}
	return spec, recs
}

// FuzzOutcomeReplay feeds arbitrary outcome records, after a valid meta
// record, through the one replay path both journals share (decode a
// CellOutcome, Assembler.Add): it must refuse them or leave an assembly
// in which every counted cell is counted once and sits in its own slot.
// Input lines are record payloads; the journal's own framing and
// checksums are internal/journal's business.
func FuzzOutcomeReplay(f *testing.F) {
	spec, recs := eventfulJournal(f)
	var seed [][]byte
	for _, r := range recs[1:] {
		seed = append(seed, r.Data)
	}
	f.Add(bytes.Join(seed, []byte("\n")))
	f.Add(bytes.Join(append(seed[:2:2], seed[0], seed[1]), []byte("\n"))) // duplicates
	f.Add([]byte(`{"Cell":{"March":"nope"}}`))
	cells := spec.Cells()

	f.Fuzz(func(t *testing.T, data []byte) {
		replay := []journal.Record{recs[0]}
		for _, line := range bytes.Split(data, []byte("\n")) {
			replay = append(replay, journal.Record{Kind: kindOutcome, Data: line})
		}
		asm := NewAssembler(spec)
		seen := map[CellRef]bool{}
		err := replayJournal(replay, spec.fingerprint(), func(o CellOutcome) error {
			accepted, err := asm.Add(o)
			if accepted {
				if seen[o.Cell] {
					t.Fatalf("cell %s accepted twice", o.Cell)
				}
				seen[o.Cell] = true
			}
			return err
		})
		// Refused or not, what was merged before stays consistent.
		if asm.Done() != len(seen) || asm.Done()+len(asm.Missing()) != asm.Total() {
			t.Fatalf("%d cells done, %d accepted, %d missing of %d (replay error: %v)",
				asm.Done(), len(seen), len(asm.Missing()), asm.Total(), err)
		}
		for i, ref := range cells {
			r := asm.st.Results[i]
			if seen[ref] != asm.Has(ref) || (seen[ref] && (CellRef{r.March, r.Bench, r.Level, r.Target}) != ref) {
				t.Fatalf("slot of %s holds %+v (accepted: %v)", ref, r, seen[ref])
			}
			if g := asm.st.Goldens[i/len(spec.Targets)]; g.March != "" && (cellKey{g.March, g.Bench, g.Level, ""}) != ref.unit() {
				t.Fatalf("golden slot of %s holds %s/%s/%s", ref, g.March, g.Bench, g.Level)
			}
		}
		if st, serr := asm.Study(); asm.Complete() != (serr == nil) {
			t.Fatalf("complete=%v but Study() = %v, %v", asm.Complete(), st, serr)
		}
	})
}

// TestJournalReplayIsAssemblerAdd: the real journal, replayed through
// Add alone, is the study the journaled run returned.
func TestJournalReplayIsAssemblerAdd(t *testing.T) {
	spec, recs := eventfulJournal(t)
	asm := NewAssembler(spec)
	err := replayJournal(recs, spec.fingerprint(), func(o CellOutcome) error {
		_, err := asm.Add(o)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := asm.Study()
	if err != nil {
		t.Fatal(err)
	}
	again, err := spec.Run() // everything replays; nothing is recomputed
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, replayed), saveBytes(t, again)) {
		t.Fatal("journal replayed with Assembler.Add differs from the resumed run")
	}
}

// TestOldFormatJournalRejected: a journal from before outcomes were the
// one record shape (golden/cell/failure kinds) is refused with the way
// out, not read by a second decoder.
func TestOldFormatJournalRejected(t *testing.T) {
	spec := resumeSpec(t)
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	w, _, err := journal.Open(spec.Journal, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cell := spec.Cells()[0]
	for _, rec := range []struct {
		kind string
		v    any
	}{
		{kindMeta, spec.fingerprint()},
		{"golden", map[string]any{"Golden": Golden{March: cell.March, Bench: cell.Bench, Level: cell.Level, Cycles: 1}}},
		{"cell", map[string]string{"March": cell.March, "Bench": cell.Bench, "Level": cell.Level, "Target": cell.Target}},
	} {
		if err := w.Append(rec.kind, rec.v); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	_, err = spec.Run()
	if err == nil || !strings.Contains(err.Error(), "remove the journal") || !strings.Contains(err.Error(), `"golden"`) {
		t.Fatalf("old-format journal not rejected with the removal hint: %v", err)
	}
}

// TestAssemblerRejectsForeignParts: an outcome filed under one cell
// that carries another cell's numbers is an error, not a merge.
func TestAssemblerRejectsForeignParts(t *testing.T) {
	spec := tinySpec(t)
	cells := spec.Cells()
	outcomes, err := spec.RunCells(context.Background(), cells[:1])
	if err != nil {
		t.Fatal(err)
	}
	var good CellOutcome
	roundTrip, _ := json.Marshal(outcomes[0])
	if err := json.Unmarshal(roundTrip, &good); err != nil {
		t.Fatal(err)
	}
	other := cells[len(cells)-1]
	mutations := map[string]func(o *CellOutcome){
		"result":       func(o *CellOutcome) { o.Result.Target = other.Target },
		"golden":       func(o *CellOutcome) { g := *o.Golden; g.March = other.March; o.Golden = &g },
		"cell failure": func(o *CellOutcome) { o.CellFailure = &Failure{March: other.March, Stage: "cell"} },
		"unit failure": func(o *CellOutcome) { o.UnitFailure = &Failure{March: other.March, Stage: "compile"} },
		"filed under":  func(o *CellOutcome) { o.Cell = other },
	}
	for name, mutate := range mutations {
		asm := NewAssembler(spec)
		bad := good
		mutate(&bad)
		if ok, err := asm.Add(bad); err == nil || ok || asm.Done() != 0 {
			t.Errorf("%s of another cell: accepted=%v err=%v done=%d", name, ok, err, asm.Done())
		}
	}
	asm := NewAssembler(spec)
	if ok, err := asm.Add(good); err != nil || !ok {
		t.Fatalf("unmutated outcome: accepted=%v err=%v", ok, err)
	}
}
