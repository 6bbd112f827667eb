package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/journal"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// resumeSpec is tinySpec narrowed to one machine: 4 prep units and 12
// campaign cells, small enough to re-run repeatedly.
func resumeSpec(t *testing.T) Spec {
	t.Helper()
	spec := tinySpec(t)
	spec.Machines = spec.Machines[:1]
	return spec
}

func saveBytes(t *testing.T, st *Study) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "study.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runWithRandomKills drives spec.RunContext to completion, cancelling
// at pseudo-random progress points (deterministic seed) and resuming
// from the journal until the study completes.
func runWithRandomKills(t *testing.T, spec Spec, seed int64) (*Study, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	interrupts := 0
	for attempt := 0; attempt < 100; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		// Cancel after a random number of progress lines; large limits
		// let some attempts finish whole units or the study itself.
		limit := int32(rng.Intn(9))
		var lines int32
		spec.Progress = func(format string, args ...any) {
			if atomic.AddInt32(&lines, 1) > limit {
				cancel()
			}
		}
		st, err := spec.RunContext(ctx)
		cancel()
		if err == nil {
			return st, interrupts
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("attempt %d: unexpected error: %v", attempt, err)
		}
		interrupts++
	}
	t.Fatal("study did not complete within 100 resume attempts")
	return nil, 0
}

// TestKillAndResumeByteIdentical is the engine's crash-tolerance
// guarantee: a journaled study killed at arbitrary points and resumed
// produces a byte-identical study.json to an uninterrupted run, at any
// parallelism.
func TestKillAndResumeByteIdentical(t *testing.T) {
	base := resumeSpec(t)
	baseline, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, baseline)

	for _, par := range []int{1, 8} {
		par := par
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			spec := resumeSpec(t)
			spec.Parallelism = par
			spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
			st, interrupts := runWithRandomKills(t, spec, 42+int64(par))
			if interrupts == 0 {
				t.Log("note: no attempt was interrupted; cancellation points never fired")
			}
			got := saveBytes(t, st)
			if !bytes.Equal(got, want) {
				t.Errorf("resumed study.json differs from uninterrupted run (%d interrupts, %d vs %d bytes)",
					interrupts, len(got), len(want))
			}
		})
	}
}

// TestPowerLossResumeByteIdentical is the other half of the guarantee.
// The journal is fsync'd once per finished unit, so a power loss leaves
// the file cut anywhere at or after the last fsync. Every such cut is
// tried: each record boundary (the file size at any Sync is one of
// them) and the middle of each record (a torn, unsynced tail). The
// resumed study replays exactly the intact records in front of the cut
// and saves the same bytes as an uninterrupted run.
func TestPowerLossResumeByteIdentical(t *testing.T) {
	spec := resumeSpec(t)
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, st)
	data, err := os.ReadFile(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}

	// cuts[i] keeps i whole records; the cut after it tears record i.
	var cuts []int
	for off := 0; off < len(data); {
		end := off + bytes.IndexByte(data[off:], '\n') + 1
		cuts = append(cuts, off, (off+end)/2)
		off = end
	}
	total := len(spec.Cells())
	if len(cuts) != 2*(1+total) {
		t.Fatalf("journal holds %d records, want a meta record and %d outcomes", len(cuts)/2, total)
	}
	for i, cut := range cuts {
		intact := i / 2 // whole records in front of the cut, meta included
		lost := spec
		lost.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(lost.Journal, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		replayed := 0
		lost.Progress = func(format string, args ...any) {
			if strings.HasPrefix(format, "resume:") {
				replayed = args[0].(int)
			}
		}
		st, err := lost.Run()
		if err != nil {
			t.Fatalf("cut at byte %d of %d: %v", cut, len(data), err)
		}
		if wantReplayed := max(intact-1, 0); replayed != wantReplayed {
			t.Errorf("cut at byte %d: %d cells replayed, want the %d in front of the cut", cut, replayed, wantReplayed)
		}
		if !bytes.Equal(saveBytes(t, st), want) {
			t.Errorf("cut at byte %d of %d: resumed study.json differs from the uninterrupted run", cut, len(data))
		}
	}
}

// TestJournalFsyncsCounted pins what a journaled study costs in fsyncs
// on the paper-shaped spec (64 units, 960 cells, one fault each): one
// for the meta record, one per prepared unit, one at close — not one
// per cell. The counts are exact, so this is a gate that cannot flake.
func TestJournalFsyncsCounted(t *testing.T) {
	spec := DefaultSpec(1)
	spec.Size = func(b workloads.Benchmark) int { return b.TestSize }
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	var got journal.Stats
	spec.Progress = func(format string, args ...any) {
		if strings.HasPrefix(format, "journal ") {
			got = args[1].(journal.Stats)
		}
	}
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}
	units := len(spec.Machines) * len(spec.Benchmarks) * len(spec.Levels)
	want := journal.Stats{Records: int64(1 + len(spec.Cells())), Syncs: int64(1 + units + 1), Bytes: fi.Size()}
	if got != want {
		t.Fatalf("study journal: %s; want %s (meta + one per unit + close)", got, want)
	}

	// A resume over the complete journal prepares nothing and writes
	// nothing: the close is its only fsync.
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}
	if want := (journal.Stats{Syncs: 1}); got != want {
		t.Fatalf("fully replayed study journal: %s; want %s", got, want)
	}
}

// TestJournaledUninterruptedRunIdentical: merely enabling the journal
// must not change a single byte of the output.
func TestJournaledUninterruptedRunIdentical(t *testing.T) {
	base := resumeSpec(t)
	baseline, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	spec := resumeSpec(t)
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, st), saveBytes(t, baseline)) {
		t.Error("journaled run not byte-identical to plain run")
	}

	// A second run over the complete journal replays everything without
	// re-simulating and still matches.
	again, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, again), saveBytes(t, baseline)) {
		t.Error("fully-replayed run not byte-identical")
	}
}

// TestJournalSpecMismatchRejected: a journal recorded under one spec
// must refuse to drive a different one.
func TestJournalSpecMismatchRejected(t *testing.T) {
	spec := resumeSpec(t)
	spec.Benchmarks = spec.Benchmarks[:1]
	spec.Levels = spec.Levels[:1]
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}
	spec.Seed++
	if _, err := spec.Run(); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("seed change not rejected: %v", err)
	}
}

// withCompileFailure makes compileUnit fail for the given (bench, level)
// unit during the test, always with the same error text, so two runs
// quarantine it identically.
func withCompileFailure(t testing.TB, bench string, level compiler.OptLevel) {
	t.Helper()
	orig := compileUnit
	t.Cleanup(func() { compileUnit = orig })
	compileUnit = func(src, name string, l compiler.OptLevel, tgt compiler.Target) (*machine.Program, error) {
		if name == bench && l == level {
			return nil, errors.New("injected compile failure")
		}
		return orig(src, name, l, tgt)
	}
}

// TestCompileFailureIsQuarantined is the error-isolation acceptance: a
// compile failure in one unit quarantines that unit and leaves every
// other cell identical to a clean run.
func TestCompileFailureIsQuarantined(t *testing.T) {
	clean, err := resumeSpec(t).Run()
	if err != nil {
		t.Fatal(err)
	}

	withCompileFailure(t, "gsm", compiler.O2)
	st, err := resumeSpec(t).Run()
	if err != nil {
		t.Fatalf("run with a failing unit returned %v", err)
	}

	if len(st.Failed) != 1 {
		t.Fatalf("Failed = %+v, want exactly one record", st.Failed)
	}
	f := st.Failed[0]
	if f.Bench != "gsm" || f.Level != "O2" || f.Stage != "compile" {
		t.Errorf("failure record = %+v", f)
	}
	if !strings.Contains(f.Err, "injected compile failure") {
		t.Errorf("failure error = %q", f.Err)
	}

	if len(st.Results) != len(clean.Results) {
		t.Fatalf("result count changed: %d vs %d", len(st.Results), len(clean.Results))
	}
	for i, r := range st.Results {
		want := clean.Results[i]
		if r.Bench == "gsm" && r.Level == "O2" {
			if r.Skipped == "" || r.Faults != 0 {
				t.Errorf("quarantined cell %d not skipped: %+v", i, r)
			}
			continue
		}
		if r != want {
			t.Errorf("cell %d differs from clean run:\n%+v\n%+v", i, r, want)
		}
	}
	for i, g := range st.Goldens {
		if g.Bench == "gsm" && g.Level == "O2" {
			if g.Cycles != 0 {
				t.Errorf("quarantined golden has cycles: %+v", g)
			}
			continue
		}
		if g != clean.Goldens[i] {
			t.Errorf("golden %d differs from clean run", i)
		}
	}
}

// TestQuarantineReplaysFromJournal: a journaled run with a quarantined
// unit replays byte-identically.
func TestQuarantineReplaysFromJournal(t *testing.T) {
	withCompileFailure(t, "gsm", compiler.O2)
	spec := resumeSpec(t)
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	first, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, first), saveBytes(t, second)) {
		t.Error("replayed study with a quarantine not byte-identical")
	}
	if len(second.Failed) != 1 || second.Failed[0].Stage != "compile" {
		t.Errorf("replayed failure record = %+v", second.Failed)
	}
}

// TestSamplingPanicIsQuarantined: a target whose sampling panics fails
// its own cell, and the unit's other cells, which run in the same
// campaign, come out as in a clean run.
func TestSamplingPanicIsQuarantined(t *testing.T) {
	spec := resumeSpec(t)
	spec.Benchmarks = spec.Benchmarks[:1]
	spec.Levels = spec.Levels[:1]
	clean, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	spec.Targets = append(spec.Targets[:1:1], append([]faultinj.Target{faultinj.NewTarget("PANIC", "",
		func(*machine.Machine) uint64 { panic("no bits") }, func(*machine.Machine, uint64) {})}, spec.Targets[1:]...)...)
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 1 || st.Failed[0].Target != "PANIC" ||
		!strings.Contains(st.Failed[0].Err, "panic: no bits") {
		t.Fatalf("Failed = %+v, want the panicking cell alone", st.Failed)
	}
	for i, r := range append(st.Results[:1:1], st.Results[2:]...) {
		if r != clean.Results[i] {
			t.Errorf("cell %d: %+v, clean run %+v", i, r, clean.Results[i])
		}
	}
}

// TestLoadTornStudyFile is the torn-write regression test: a
// study.json cut short mid-record must load with a clear error, not a
// bare JSON parse failure.
func TestLoadTornStudyFile(t *testing.T) {
	spec := resumeSpec(t)
	spec.Benchmarks = spec.Benchmarks[:1]
	spec.Levels = spec.Levels[:1]
	spec.Targets = spec.Targets[:1]
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "study.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:2*len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("torn study.json loaded without error")
	}
	if !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Errorf("torn-file error not clearly diagnosed: %v", err)
	}

	// A zero-byte file — what a crash between create and write leaves
	// behind on some filesystems — must get the same diagnosis.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("zero-byte study.json loaded without error")
	}
	if !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Errorf("zero-byte-file error not clearly diagnosed: %v", err)
	}

	// Restore the good bytes: a full file written by Save round-trips.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("intact study.json failed to load: %v", err)
	}

	// Save leaves no temp litter next to the target.
	dir := filepath.Dir(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "study.json" {
			t.Errorf("unexpected file %s left by Save", e.Name())
		}
	}
}

// TestRunContextPreCancelled: an already-cancelled context runs
// nothing and reports interruption.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := resumeSpec(t)
	if _, err := spec.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestJournalMismatchExplainsDiff pins the shape of the
// fingerprint-mismatch error: it must name each differing knob with
// the stored and current values, not just say "different spec".
func TestJournalMismatchExplainsDiff(t *testing.T) {
	spec := resumeSpec(t)
	spec.Benchmarks = spec.Benchmarks[:1]
	spec.Levels = spec.Levels[:1]
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}

	changed := spec
	changed.Seed += 35
	changed.Faults++
	changed.Prune = !changed.Prune
	_, err := changed.Run()
	if err == nil {
		t.Fatal("changed spec not rejected")
	}
	msg := err.Error()
	for _, want := range []string{
		fmt.Sprintf("Seed: journal has %d, current spec has %d", spec.Seed, changed.Seed),
		fmt.Sprintf("Faults: journal has %d, current spec has %d", spec.Faults, changed.Faults),
		fmt.Sprintf("Prune: journal has %v, current spec has %v", spec.Prune, changed.Prune),
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "Machines:") {
		t.Errorf("error diffs an unchanged knob:\n%s", msg)
	}

	// Structural changes diff by entry, with the benchmark named on a
	// size change.
	resized := spec
	resized.Size = func(b workloads.Benchmark) int { return b.TestSize + 1 }
	_, err = resized.Run()
	if err == nil || !strings.Contains(err.Error(), "Sizes[0] (qsort): journal has") {
		t.Errorf("size change not diffed by benchmark: %v", err)
	}
	relevel := spec
	relevel.Levels = []compiler.OptLevel{compiler.O2}
	_, err = relevel.Run()
	if err == nil || !strings.Contains(err.Error(), `Levels[0]: journal has "O0", current spec has "O2"`) {
		t.Errorf("level change not diffed per entry: %v", err)
	}
	wider := spec
	wider.Levels = []compiler.OptLevel{compiler.O0, compiler.O2}
	_, err = wider.Run()
	if err == nil || !strings.Contains(err.Error(), "Levels: journal has 1 entries [O0], current spec has 2 [O0 O2]") {
		t.Errorf("level list growth not diffed: %v", err)
	}
}
