package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sevsim/internal/binanalysis"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// residencySpec is a smoke study of 12 units (both machines, three
// benchmarks, two levels) with two cells each: enough units that a
// resident set following them would show against any window tested.
func residencySpec(t *testing.T) Spec {
	t.Helper()
	spec := tinySpec(t)
	sha, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	spec.Benchmarks = append(spec.Benchmarks, sha)
	spec.Targets = spec.Targets[:2]
	spec.Faults = 2
	return spec
}

// flightCount counts, through unitHook, the units between "preparation
// submitted" and "released", and keeps every unit it saw.
type flightCount struct {
	mu       sync.Mutex
	now, max int
	units    []*prepUnit
}

func countFlight(t *testing.T) *flightCount {
	t.Helper()
	c := &flightCount{}
	t.Cleanup(func() { unitHook = nil })
	unitHook = func(u *prepUnit, released bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if released {
			c.now--
			return
		}
		c.units = append(c.units, u)
		if c.now++; c.now > c.max {
			c.max = c.now
		}
	}
	return c
}

// check holds a finished run to the bound: never more than workers + 1
// units in flight, none in flight now, and no unit still holding an
// experiment or a pruner.
func (c *flightCount) check(t *testing.T, workers, units int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > workers+1 || c.max < 1 {
		t.Errorf("at most %d units in flight, want 1..%d (workers + 1)", c.max, workers+1)
	}
	if c.now != 0 || len(c.units) != units {
		t.Errorf("%d units admitted and %d still in flight after run returned, want %d and 0", len(c.units), c.now, units)
	}
	for _, u := range c.units {
		if u.exp != nil || u.pruner != nil {
			t.Errorf("%s %s %s: still holds experiment %v, pruner %v", u.cfg.Name, u.bench.Name, u.level, u.exp != nil, u.pruner != nil)
		}
	}
}

// largestAnalyses sums the analysis bytes of the n units that held the
// most: the most a window of n units can hold at once.
func (c *flightCount) largestAnalyses(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	sizes := make([]int, len(c.units))
	for i, u := range c.units {
		sizes[i] = u.held.analysis
	}
	slices.Sort(sizes)
	sum := 0
	for _, b := range sizes[max(0, len(sizes)-n):] {
		sum += b
	}
	return sum
}

// returns runs spec and fails the test if run does not come back: a
// runner that waits on a preparation never run, or never takes its next
// unit, is a hang, not an error.
func returns(t *testing.T, ctx context.Context, spec Spec) (*Study, error) {
	t.Helper()
	type result struct {
		st  *Study
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := spec.RunContext(ctx)
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		return r.st, r.err
	case <-time.After(2 * time.Minute):
		t.Fatal("run did not return: the window deadlocked")
		return nil, nil
	}
}

// TestResidencyFollowsWorkers is the count behind "a study's resident
// set follows its workers": at every parallelism, with and without the
// pruner, the cache and the journal, at most workers + 1 units are ever
// in flight, every unit lets go of its experiment and pruner, the
// end-of-run line says the same, and the study does not move. Each
// prune unit analyzes its own binary, so the analyses held are bounded
// by the window too, not by the number of binaries.
func TestResidencyFollowsWorkers(t *testing.T) {
	const units = 12
	want := map[bool][]byte{} // by Prune: the pruner adds static bounds
	for _, workers := range []int{1, 2, 4} {
		for mode := 0; mode < 8; mode++ {
			// Every mix of the three at 2 workers; none and all of them at 1 and 4.
			if workers != 2 && mode != 0 && mode != 7 {
				continue
			}
			prune, cached, journaled := mode&1 != 0, mode&2 != 0, mode&4 != 0
			name := fmt.Sprintf("workers=%d/prune=%v/cache=%v/journal=%v", workers, prune, cached, journaled)
			t.Run(name, func(t *testing.T) {
				spec := residencySpec(t)
				spec.Parallelism, spec.Prune = workers, prune
				if cached {
					spec.Cache = openCache(t, t.TempDir())
				}
				if journaled {
					spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
				}
				var line residency
				lines := 0
				spec.Progress = func(format string, args ...any) {
					if strings.HasPrefix(format, "resident: ") {
						line = args[0].(residency)
						lines++
					}
				}
				count := countFlight(t)
				st, err := returns(t, context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				count.check(t, workers, units)
				if lines != 1 || line.Units != units || line.Window != workers+1 || line.MaxInFlight != count.max {
					t.Errorf("%d resident lines, the last %+v; want 1 with %d units, window %d, %d in flight", lines, line, units, workers+1, count.max)
				}
				if line.Held.stream == 0 || (line.Held.trace != 0) != prune || (line.Held.pruner != 0) != prune || (line.Held.analysis != 0) != prune {
					t.Errorf("bytes by layer %+v: want checkpoints always, and trace, pruner tables and analyses exactly when pruning", line.Held)
				}
				if window := count.largestAnalyses(workers + 1); line.Held.analysis > window {
					t.Errorf("%d analysis bytes held at the peak, more than the %d of the window's %d largest units", line.Held.analysis, window, workers+1)
				}
				got := saveBytes(t, st)
				if want[prune] == nil {
					want[prune] = got
				} else if string(got) != string(want[prune]) {
					t.Error("study.json differs from the first run with this Prune")
				}
			})
		}
	}
}

// TestResidencyBoundOnFailurePaths: the window gives every slot back and
// run returns when the study is cancelled half way and when units are
// quarantined.
func TestResidencyBoundOnFailurePaths(t *testing.T) {
	const units = 12
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("cancelled/workers=%d", workers), func(t *testing.T) {
			spec := residencySpec(t)
			spec.Parallelism, spec.Prune = workers, true
			spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			goldens := 0
			spec.Progress = func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				if strings.HasPrefix(format, "golden ") {
					if goldens++; goldens == 3 {
						cancel()
					}
				}
			}
			count := countFlight(t)
			if _, err := returns(t, ctx, spec); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v", err)
			}
			count.check(t, workers, units)

		})
		t.Run(fmt.Sprintf("quarantined/workers=%d", workers), func(t *testing.T) {
			withCompileFailure(t, "gsm", compiler.O2)
			spec := residencySpec(t)
			spec.Parallelism = workers
			count := countFlight(t)
			st, err := returns(t, context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Failed) != 2 {
				t.Errorf("%d failure records, want gsm O2 on both machines", len(st.Failed))
			}
			count.check(t, workers, units)
		})
	}
}

// TestAnalyzeFailureClosesExperiment: a unit whose golden run succeeded
// and whose analyze stage then failed still hands its ladder's pooled
// snapshots back when it is quarantined, and is prepared once: a failure
// is final, never retried. Every experiment that reached the analyze
// stage is counted with the snapshots it held; all of them must have
// come back.
func TestAnalyzeFailureClosesExperiment(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			var mu sync.Mutex
			var handed []*faultinj.Experiment
			snaps, failed := 0, 0
			orig := newPruner
			t.Cleanup(func() { newPruner = orig })
			newPruner = func(a *binanalysis.Analysis, exp *faultinj.Experiment) (*binanalysis.DUEPruner, error) {
				mu.Lock()
				defer mu.Unlock()
				handed = append(handed, exp)
				snaps += exp.Artifacts().Stream.Len()
				if exp.Program.Name == "gsm" && exp.Config.Name == machine.Configs()[0].Name {
					failed++
					return nil, fmt.Errorf("injected analyze failure %d", failed)
				}
				return orig(a, exp)
			}
			spec := resumeSpec(t) // one machine: qsort and gsm at O0 and O2
			spec.Prune, spec.Faults = true, 2
			if cached {
				spec.Cache = openCache(t, t.TempDir())
			}
			st, err := returns(t, context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Failed) != 2 || st.Failed[0].Stage != "analyze" || st.Failed[1].Stage != "analyze" {
				t.Errorf("failure records %+v, want gsm O0 and O2 quarantined in analyze", st.Failed)
			}
			if failed != 2 {
				t.Errorf("%d analyze failures injected, want one per gsm unit", failed)
			}
			returned := 0
			for _, exp := range handed {
				if exp.Artifacts().Stream == nil {
					returned++
				}
			}
			if snaps == 0 || returned != len(handed) {
				t.Errorf("%d of %d experiments that reached the analyze stage were closed (%d snapshots among them)", returned, len(handed), snaps)
			}
		})
	}
}
