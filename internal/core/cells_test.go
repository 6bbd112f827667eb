package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/machine"
)

func TestCellsEnumerationMatchesRunOrder(t *testing.T) {
	spec := tinySpec(t)
	cells := spec.Cells()
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(st.Results) {
		t.Fatalf("Cells() has %d entries, Run produced %d results", len(cells), len(st.Results))
	}
	for i, ref := range cells {
		r := st.Results[i]
		got := CellRef{March: r.March, Bench: r.Bench, Level: r.Level, Target: r.Target}
		if got != ref {
			t.Fatalf("cell %d: Cells() says %s, Run produced %s", i, ref, got)
		}
	}
}

// TestRunCellsSubsetMatchesFullRun is the distribution correctness
// anchor: any subset of cells, computed in isolation, must be
// element-identical to the corresponding slice of a full run — that is
// what lets a coordinator scatter cells across workers and still merge
// a byte-identical study.
func TestRunCellsSubsetMatchesFullRun(t *testing.T) {
	spec := tinySpec(t)
	full, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	// A deliberately awkward subset: one full unit, one cell of
	// another unit, and a lone cell from the last unit.
	subset := []CellRef{cells[0], cells[1], cells[2], cells[4], cells[len(cells)-2]}
	outcomes, err := spec.RunCells(context.Background(), subset)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(subset) {
		t.Fatalf("got %d outcomes for %d cells", len(outcomes), len(subset))
	}
	idx := map[CellRef]int{}
	for i, ref := range cells {
		idx[ref] = i
	}
	seenGolden := map[cellKey]bool{}
	for _, o := range outcomes {
		i, ok := idx[o.Cell]
		if !ok {
			t.Fatalf("outcome for unrequested cell %s", o.Cell)
		}
		if !reflect.DeepEqual(o.Result, full.Results[i]) {
			t.Errorf("cell %s differs from full run:\n got %+v\nwant %+v", o.Cell, o.Result, full.Results[i])
		}
		if o.Golden != nil {
			if seenGolden[o.Cell.unit()] {
				t.Errorf("unit of %s attached its golden twice", o.Cell)
			}
			seenGolden[o.Cell.unit()] = true
			ui := i / len(spec.Targets)
			if !reflect.DeepEqual(*o.Golden, full.Goldens[ui]) {
				t.Errorf("golden of %s differs from full run", o.Cell)
			}
		}
	}
	if len(seenGolden) != 3 {
		t.Errorf("goldens attached for %d units, want 3", len(seenGolden))
	}
}

func TestRunCellsRejectsBadRefs(t *testing.T) {
	spec := tinySpec(t)
	cells := spec.Cells()
	if _, err := spec.RunCells(context.Background(), []CellRef{{March: "nope"}}); err == nil {
		t.Error("unknown cell not rejected")
	}
	if _, err := spec.RunCells(context.Background(), []CellRef{cells[0], cells[0]}); err == nil {
		t.Error("duplicate cell not rejected")
	}
	out, err := spec.RunCells(context.Background(), nil)
	if err != nil || out != nil {
		t.Errorf("empty request: got %v, %v", out, err)
	}
}

// TestAssemblerRebuildsByteIdenticalStudy is the merge-determinism
// guarantee end to end: cells computed in scattered batches, merged in
// a hostile order with duplicates, must reassemble to the exact bytes
// a clean single-process run saves.
func TestAssemblerRebuildsByteIdenticalStudy(t *testing.T) {
	spec := tinySpec(t)
	full, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, full)

	cells := spec.Cells()
	// Three "workers": interleaved cell assignment, so every worker
	// touches most units and goldens arrive from multiple sources.
	var batches [3][]CellRef
	for i, ref := range cells {
		batches[i%3] = append(batches[i%3], ref)
	}
	var outcomes []CellOutcome
	for _, batch := range batches {
		out, err := spec.RunCells(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, out...)
	}

	asm := NewAssembler(spec)
	if asm.Total() != len(cells) {
		t.Fatalf("assembler total %d, want %d", asm.Total(), len(cells))
	}
	// Merge in reverse order, replaying every fourth outcome as the
	// duplicate a lease-expiry race would produce.
	for i := len(outcomes) - 1; i >= 0; i-- {
		accepted, err := asm.Add(outcomes[i])
		if err != nil {
			t.Fatal(err)
		}
		if !accepted {
			t.Fatalf("outcome %s rejected as duplicate on first add", outcomes[i].Cell)
		}
		if i%4 == 0 {
			accepted, err := asm.Add(outcomes[i])
			if err != nil {
				t.Fatal(err)
			}
			if accepted {
				t.Fatalf("duplicate of %s accepted", outcomes[i].Cell)
			}
		}
	}
	if !asm.Complete() {
		t.Fatalf("assembler incomplete: missing %v", asm.Missing())
	}
	st, err := asm.Study()
	if err != nil {
		t.Fatal(err)
	}
	got := saveBytes(t, st)
	if !bytes.Equal(got, want) {
		t.Fatalf("assembled study differs from single-process run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestAssemblerKeepGoingQuarantine checks that unit failures carried
// by outcomes assemble to the same bytes a keep-going single-process
// run records for them.
func TestAssemblerKeepGoingQuarantine(t *testing.T) {
	spec := tinySpec(t)
	spec.KeepGoing = true
	// A stateless injected failure (unlike withCompileFailure's
	// counter) so the baseline run and the RunCells run quarantine
	// with identical error text.
	orig := compileUnit
	t.Cleanup(func() { compileUnit = orig })
	compileUnit = func(src, name string, l compiler.OptLevel, tgt compiler.Target) (*machine.Program, error) {
		if name == "gsm" && l == compiler.O2 {
			return nil, errors.New("injected compile failure")
		}
		return orig(src, name, l, tgt)
	}

	full, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Failed) == 0 {
		t.Fatal("injected failure did not quarantine anything")
	}
	want := saveBytes(t, full)

	outcomes, err := spec.RunCells(context.Background(), spec.Cells())
	if err != nil {
		t.Fatal(err)
	}
	asm := NewAssembler(spec)
	for _, o := range outcomes {
		if _, err := asm.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	st, err := asm.Study()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, st), want) {
		t.Fatal("assembled keep-going study differs from single-process run")
	}
}

func TestAssemblerRefusesPartialStudy(t *testing.T) {
	spec := tinySpec(t)
	asm := NewAssembler(spec)
	if _, err := asm.Study(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("partial assembly not refused: %v", err)
	}
	if got := len(asm.Missing()); got != asm.Total() {
		t.Fatalf("missing %d, want %d", got, asm.Total())
	}
}

// TestAssemblerQuarantineVsCompletionRace pins the first-wins contract
// between a quarantine outcome and a late completion: whichever lands
// first is the cell's fate, deterministically.
func TestAssemblerQuarantineVsCompletionRace(t *testing.T) {
	spec := tinySpec(t)
	cells := spec.Cells()
	outcomes, err := spec.RunCells(context.Background(), cells[:1])
	if err != nil {
		t.Fatal(err)
	}

	// Quarantine first, then the late completion arrives: dropped.
	asm := NewAssembler(spec)
	f := Failure{March: cells[0].March, Bench: cells[0].Bench, Level: cells[0].Level,
		Target: cells[0].Target, Stage: "dispatch", Err: "lease expired"}
	if ok, err := asm.Add(CellFailed(cells[0], f)); err != nil || !ok {
		t.Fatalf("quarantine: %v %v", ok, err)
	}
	if ok, err := asm.Add(outcomes[0]); err != nil || ok {
		t.Fatalf("late completion after quarantine: accepted=%v err=%v", ok, err)
	}
	if asm.Failed() != 1 {
		t.Fatalf("Failed() = %d after one quarantine, want 1", asm.Failed())
	}

	// Completion first, then the quarantine arrives: dropped.
	asm = NewAssembler(spec)
	if ok, err := asm.Add(outcomes[0]); err != nil || !ok {
		t.Fatalf("completion: %v %v", ok, err)
	}
	if ok, err := asm.Add(CellFailed(cells[0], f)); err != nil || ok {
		t.Fatalf("late quarantine after completion: accepted=%v err=%v", ok, err)
	}
}

// TestRunCellsJournalReplay is the worker-death recovery contract: a
// worker's local journal makes a re-run of the same lease replay its
// finished cells (identical outcomes, no recompute), and a wider lease
// replays the overlap while computing only the new cells.
func TestRunCellsJournalReplay(t *testing.T) {
	spec := tinySpec(t)
	spec.Machines = spec.Machines[:1]
	spec.Journal = filepath.Join(t.TempDir(), "worker.journal")
	cells := spec.Cells()

	first, err := spec.RunCells(context.Background(), cells[:4])
	if err != nil {
		t.Fatal(err)
	}

	// Same lease again — the restarted worker: everything replays.
	again, err := spec.RunCells(context.Background(), cells[:4])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("replayed lease outcomes differ from the original run")
	}

	// A wider lease: the overlap replays, the rest computes fresh, and
	// everything matches a journal-free run of the same cells.
	wide, err := spec.RunCells(context.Background(), cells[:6])
	if err != nil {
		t.Fatal(err)
	}
	fresh := spec
	fresh.Journal = ""
	want, err := fresh.RunCells(context.Background(), cells[:6])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wide, want) {
		t.Fatal("journaled wide lease differs from a journal-free run")
	}
}
