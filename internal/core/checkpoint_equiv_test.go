package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"sevsim/internal/faultinj"
)

// withExpOptions runs the rest of the test with every unit's experiment
// built from opts: the way to faultinj's reference paths.
func withExpOptions(t *testing.T, opts faultinj.Options) {
	t.Helper()
	orig := expOptions
	t.Cleanup(func() { expOptions = orig })
	expOptions = opts
}

// TestCheckpointEquivalence is the study-level soundness acceptance for
// the injection fast path: with checkpoint fast-forward and the
// early-convergence exit fully disabled, the study must produce a
// byte-identical study.json to every checkpoint budget with both on —
// a single checkpoint, the former default of 8, the default (32), a
// ladder denser than the default — at serial and parallel execution.
// Restores between different rungs, chunk-shared snapshots and the
// convergence comparison that skips shared chunks are all on that path.
func TestCheckpointEquivalence(t *testing.T) {
	withExpOptions(t, faultinj.Options{Checkpoints: -1, NoFastExit: true})
	baseline, err := resumeSpec(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, baseline)

	for _, k := range []int{-1, 1, 8, 32, 64} {
		for _, par := range []int{1, 4} {
			k, par := k, par
			t.Run(fmt.Sprintf("checkpoints%d-parallel%d", k, par), func(t *testing.T) {
				withExpOptions(t, faultinj.Options{Checkpoints: k}) // fast exit on
				spec := resumeSpec(t)
				spec.Parallelism = par
				st, err := spec.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := saveBytes(t, st)
				if !bytes.Equal(got, want) {
					t.Errorf("fast-path study.json differs from reference (%d vs %d bytes)",
						len(got), len(want))
				}
			})
		}
	}
}

// TestKillAndResumeNoCheckpoints guards the interaction between the
// reference path and the crash-tolerance engine: with checkpointing and
// the fast exit off, a journaled study killed at random points still
// resumes to a byte-identical study.json, and the reference for
// comparison is a default (checkpointing on) uninterrupted run.
func TestKillAndResumeNoCheckpoints(t *testing.T) {
	baseline, err := resumeSpec(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, baseline)

	withExpOptions(t, faultinj.Options{Checkpoints: -1, NoFastExit: true})
	spec := resumeSpec(t)
	spec.Parallelism = 4
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	st, interrupts := runWithRandomKills(t, spec, 1337)
	if interrupts == 0 {
		t.Log("note: no attempt was interrupted; cancellation points never fired")
	}
	if got := saveBytes(t, st); !bytes.Equal(got, want) {
		t.Errorf("no-checkpoint resumed study.json differs from default run (%d interrupts)", interrupts)
	}
}
