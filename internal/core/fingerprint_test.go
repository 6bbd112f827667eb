package core

import (
	"reflect"
	"testing"
	"time"

	"sevsim/internal/dispatch/backoff"
	"sevsim/internal/workloads"
)

// TestFingerprintIgnoresEphemeralKnobs pins the journal compatibility
// contract: every //journal:ephemeral execution knob may change
// between the run that wrote a journal and the run that resumes it,
// so none of them may reach the meta fingerprint — while everything
// that can change a result must.
func TestFingerprintIgnoresEphemeralKnobs(t *testing.T) {
	base := DefaultSpec(100)
	want := base.fingerprint()

	knobs := base
	knobs.Parallelism = 7
	knobs.Progress = func(string, ...any) {}
	knobs.Journal = "elsewhere.jsonl"
	knobs.KeepGoing = true
	knobs.Retries = 3
	knobs.RetryBackoff = &backoff.Policy{Base: time.Second, Max: time.Minute}
	knobs.CellTimeout = time.Minute
	if got := knobs.fingerprint(); !reflect.DeepEqual(got, want) {
		t.Errorf("fingerprint changed by ephemeral knobs:\n got %+v\nwant %+v", got, want)
	}

	// And the converse: result-affecting fields must change it.
	seed := base
	seed.Seed++
	if reflect.DeepEqual(seed.fingerprint(), want) {
		t.Error("fingerprint ignores Seed")
	}
	faults := base
	faults.Faults++
	if reflect.DeepEqual(faults.fingerprint(), want) {
		t.Error("fingerprint ignores Faults")
	}
	prune := base
	prune.Prune = !prune.Prune
	if reflect.DeepEqual(prune.fingerprint(), want) {
		t.Error("fingerprint ignores Prune")
	}
	size := base
	size.Size = func(workloads.Benchmark) int { return 1 }
	if reflect.DeepEqual(size.fingerprint(), want) {
		t.Error("fingerprint ignores the resolved benchmark sizes")
	}
}
