package core

import (
	"reflect"
	"testing"
	"time"

	"sevsim/internal/artcache"
	"sevsim/internal/dispatch/backoff"
	"sevsim/internal/workloads"
)

// TestFingerprintIgnoresEphemeralKnobs pins the journal compatibility
// contract field by field. Every Spec field has one row with one
// perturbation: a fingerprinted field's perturbation must change the
// journal's meta record, and an ephemeral knob's must not, because a study
// may be resumed under a different value of it. A Spec field without a
// row fails, so a new field is classified when it is added.
func TestFingerprintIgnoresEphemeralKnobs(t *testing.T) {
	rows := []struct {
		field     string
		ephemeral string // why a resume may change the field; empty when fingerprinted
		perturb   func(*Spec)
	}{
		{"Machines", "", func(s *Spec) { s.Machines = s.Machines[:1] }},
		{"Benchmarks", "", func(s *Spec) { s.Benchmarks = s.Benchmarks[1:] }},
		{"Levels", "", func(s *Spec) { s.Levels = s.Levels[:2] }},
		{"Targets", "", func(s *Spec) { s.Targets = s.Targets[:3] }},
		{"Faults", "", func(s *Spec) { s.Faults++ }},
		{"Seed", "", func(s *Spec) { s.Seed++ }},
		{"Size", "", func(s *Spec) { s.Size = func(workloads.Benchmark) int { return 1 } }},
		{"Prune", "", func(s *Spec) { s.Prune = !s.Prune }},
		{"Parallelism", "execution shape only; results are byte-identical at every parallelism",
			func(s *Spec) { s.Parallelism = 7 }},
		{"Progress", "progress observer; never reaches results",
			func(s *Spec) { s.Progress = func(string, ...any) {} }},
		{"Journal", "the journal's own path; where results are logged, not what they are",
			func(s *Spec) { s.Journal = "elsewhere.jsonl" }},
		{"KeepGoing", "failure-handling policy; cells that complete are byte-identical either way, and quarantined failures are journaled as such",
			func(s *Spec) { s.KeepGoing = true }},
		{"Retries", "retry budget for transient host faults; successful results are independent of it",
			func(s *Spec) { s.Retries = 3 }},
		{"RetryBackoff", "retry pacing only; it shapes when attempts happen, never what they produce",
			func(s *Spec) { s.RetryBackoff = &backoff.Policy{Base: time.Second, Max: time.Minute} }},
		{"CellTimeout", "wall-clock watchdog for unattended runs; deliberately outside the reproducibility contract",
			func(s *Spec) { s.CellTimeout = time.Minute }},
		{"Cache", "artifact source only; a cache hit decodes to state bit-identical to a fresh prep, so no classification can depend on it",
			func(s *Spec) { s.Cache = &artcache.Cache{} }},
	}

	base := DefaultSpec(100)
	want := base.fingerprint()
	typ := reflect.TypeOf(base)
	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.field] = true
		if _, ok := typ.FieldByName(r.field); !ok {
			t.Errorf("row %s names no Spec field", r.field)
			continue
		}
		s := base
		r.perturb(&s)
		if reflect.DeepEqual(reflect.ValueOf(s).FieldByName(r.field).Interface(), reflect.ValueOf(base).FieldByName(r.field).Interface()) {
			t.Errorf("the perturbation of %s leaves it unchanged", r.field)
		}
		changed := !reflect.DeepEqual(s.fingerprint(), want)
		switch {
		case r.ephemeral == "" && !changed:
			t.Errorf("fingerprint ignores %s", r.field)
		case r.ephemeral != "" && changed:
			t.Errorf("fingerprint changed by %s, which is ephemeral: %s", r.field, r.ephemeral)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !covered[name] {
			t.Errorf("Spec.%s has no row: say whether the journal fingerprints it, and if not, why a resume may change it", name)
		}
	}
}
