package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"sevsim/internal/artcache"
	"sevsim/internal/workloads"
)

// TestFingerprintIgnoresEphemeralKnobs pins the journal compatibility
// contract field by field. Every Spec field has one row with one
// perturbation: a fingerprinted field's perturbation must change the
// journal's meta record and the study ID of its wire form, and an
// ephemeral knob's must change neither, because a study may be resumed
// under a different value of it. A Spec field without a row fails, so a
// new field is classified when it is added.
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
		{"Cache", "artifact source only; a cache hit decodes to state bit-identical to a fresh prep, so no classification can depend on it",
			func(s *Spec) { s.Cache = &artcache.Cache{} }},
	}

	base := DefaultSpec(100)
	want := base.Wire()
	wantID := want.ID()
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
		changed := !reflect.DeepEqual(s.Wire(), want)
		if changedID := s.Wire().ID() != wantID; changedID != changed {
			t.Errorf("perturbing %s changes the fingerprint (%v) and the study ID (%v) differently", r.field, changed, changedID)
		}
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

// TestMetaRecordBytes pins the meta record a study journal starts with:
// a journal written by an earlier version, including one whose wire
// spec still carried a retry budget, must still resume, so the record's
// bytes must not move.
func TestMetaRecordBytes(t *testing.T) {
	spec := DefaultSpec(3)
	spec.Machines, spec.Benchmarks, spec.Levels, spec.Targets = spec.Machines[:1], spec.Benchmarks[:1], spec.Levels[:1], spec.Targets[:1]
	got, err := json.Marshal(spec.Wire())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Machines":["Cortex-A15-like"],"Benches":["qsort"],"Sizes":[300],"Levels":["O0"],"Targets":["L1I.data"],"Faults":3,"Seed":2021,"Prune":false}`
	if string(got) != want {
		t.Fatalf("meta record\n got %s\nwant %s", got, want)
	}
}
