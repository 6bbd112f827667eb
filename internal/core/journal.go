// Study journaling: the adapter between the generic durable record log
// (internal/journal) and the study engine. The journal is a meta record
// pinning the spec followed by one outcome record per finished cell —
// the same CellOutcome the scheduler emits and remote workers report —
// and replaying it is Assembler.Add in file order, so a resumed run
// merges exactly what the interrupted one had merged and the final
// study.json is byte-identical either way.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"sevsim/internal/cli"
	"sevsim/internal/faultinj"
	"sevsim/internal/journal"
	"sevsim/internal/workloads"
)

// Journal record kinds. The meta record is always first; every other
// record is the CellOutcome of one finished cell, failures included, so
// a resume reproduces quarantines instead of retrying them forever.
const (
	kindMeta    = "meta"
	kindOutcome = "outcome"
)

// StudySpec is a study's identity in names: the wire form a coordinator
// hands its workers and the meta record a study journal starts with.
// Execution knobs (parallelism, journaling paths, watchdogs, the cache)
// stay host-local. Retries and CacheMaxMB travel with a submitted study
// but are not part of its identity, and being omitempty they leave the
// meta record's bytes what they were before the two were one type.
type StudySpec struct {
	Machines []string // machine config names (MachineConfig)
	Benches  []string // benchmark names (workloads.ByName)
	Sizes    []int    // per-bench sizes, parallel to Benches (nil: defaults)
	Levels   []string // optimization levels ("O0".."O3")
	Targets  []string // structure fields (faultinj.TargetByName); nil: all
	Faults   int
	Seed     int64
	Prune    bool

	// Retries is the workers' Spec.Retries.
	Retries int `json:",omitempty"`

	// CacheMaxMB advises workers how much disk their prep-artifact
	// cache may use for this study (0: no advice). It is pure execution
	// policy: a cache hit decodes to state bit-identical to a fresh prep.
	CacheMaxMB int64 `json:",omitempty"`
}

// identity drops the fields a study may change without becoming another
// study: what the journal fingerprints and the study ID hashes.
func (w StudySpec) identity() StudySpec {
	w.Retries, w.CacheMaxMB = 0, 0
	return w
}

// Wire renders the spec as its StudySpec, sizes resolved.
func (s Spec) Wire() StudySpec {
	w := StudySpec{
		Sizes:   s.resolveSizes(),
		Faults:  s.Faults,
		Seed:    s.Seed,
		Prune:   s.Prune,
		Retries: s.Retries,
	}
	for _, cfg := range s.Machines {
		w.Machines = append(w.Machines, cfg.Name)
	}
	for _, b := range s.Benchmarks {
		w.Benches = append(w.Benches, b.Name)
	}
	for _, l := range s.Levels {
		w.Levels = append(w.Levels, l.String())
	}
	for _, t := range s.Targets {
		w.Targets = append(w.Targets, t.Name())
	}
	return w
}

// fingerprint is the journal's meta record. Everything that can change
// a result must be reachable from here.
// TestFingerprintIgnoresEphemeralKnobs perturbs every Spec field: a
// fingerprinted field must change the record, and an ephemeral knob,
// whose row says why a resume may change it, must not.
func (s Spec) fingerprint() StudySpec { return s.Wire().identity() }

// Normalize fills defaults (benchmark sizes, the full target set) and
// validates every name resolves. The normalized spec is what the
// study ID hashes, so a spec submitted with explicit defaults and one
// submitted with them elided are the same study.
func (w StudySpec) Normalize() (StudySpec, error) {
	if len(w.Machines) == 0 || len(w.Benches) == 0 || len(w.Levels) == 0 {
		return w, fmt.Errorf("core: spec needs at least one machine, benchmark, and level")
	}
	if w.Faults <= 0 {
		return w, fmt.Errorf("core: spec needs a positive fault count")
	}
	if len(w.Targets) == 0 {
		for _, t := range faultinj.Targets() {
			w.Targets = append(w.Targets, t.Name())
		}
	}
	if w.Sizes == nil {
		w.Sizes = make([]int, len(w.Benches))
		for i, name := range w.Benches {
			b, err := workloads.ByName(name)
			if err != nil {
				return w, fmt.Errorf("core: %w", err)
			}
			w.Sizes[i] = b.DefaultSize
		}
	}
	if len(w.Sizes) != len(w.Benches) {
		return w, fmt.Errorf("core: %d sizes for %d benchmarks", len(w.Sizes), len(w.Benches))
	}
	if _, err := w.Spec(); err != nil {
		return w, err
	}
	return w, nil
}

// ID derives the study's content-addressed identity from the
// normalized spec, so resubmitting the same study is idempotent.
func (w StudySpec) ID() string {
	data, err := json.Marshal(w.identity())
	if err != nil {
		// Marshalling a struct of strings and ints cannot fail.
		panic(fmt.Sprintf("core: marshal spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return "st-" + hex.EncodeToString(sum[:8])
}

// Spec resolves the names back to an executable Spec. The resolution is
// deterministic, so every worker and the coordinator agree on cell
// enumeration, seeds, and the journal fingerprint.
func (w StudySpec) Spec() (Spec, error) {
	s := Spec{Faults: w.Faults, Seed: w.Seed, Prune: w.Prune, Retries: w.Retries}
	for _, name := range w.Machines {
		cfg, ok := MachineConfig(name)
		if !ok {
			return Spec{}, fmt.Errorf("core: unknown machine config %q", name)
		}
		s.Machines = append(s.Machines, cfg)
	}
	for _, name := range w.Benches {
		b, err := workloads.ByName(name)
		if err != nil {
			return Spec{}, fmt.Errorf("core: %w", err)
		}
		s.Benchmarks = append(s.Benchmarks, b)
	}
	for _, name := range w.Levels {
		level, err := cli.Level(name)
		if err != nil {
			return Spec{}, fmt.Errorf("core: %w", err)
		}
		s.Levels = append(s.Levels, level)
	}
	for _, name := range w.Targets {
		t, ok := faultinj.TargetByName(name)
		if !ok {
			return Spec{}, fmt.Errorf("core: unknown injection target %q", name)
		}
		s.Targets = append(s.Targets, t)
	}
	if len(w.Sizes) == len(w.Benches) {
		sizes := make(map[string]int, len(w.Benches))
		for i, name := range w.Benches {
			sizes[name] = w.Sizes[i]
		}
		s.Size = func(b workloads.Benchmark) int {
			if n, ok := sizes[b.Name]; ok && n > 0 {
				return n
			}
			return b.DefaultSize
		}
	}
	return s, nil
}

// resolveSizes returns the effective size of each benchmark.
func (s Spec) resolveSizes() []int {
	sizes := make([]int, len(s.Benchmarks))
	for i, b := range s.Benchmarks {
		sizes[i] = b.DefaultSize
		if s.Size != nil {
			sizes[i] = s.Size(b)
		}
	}
	return sizes
}

// openStudyJournal opens (or creates) the journal at path and hands
// every outcome it holds to add, in file order. A fresh journal gets
// its meta record; an existing one must carry the spec's.
func openStudyJournal(path string, meta StudySpec, add func(CellOutcome) error) (*journal.Writer, error) {
	w, recs, err := journal.Open(path, journal.Options{})
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		err = w.Append(kindMeta, meta) // pin the spec before any outcome
	} else {
		err = replayJournal(recs, meta, add)
	}
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("study journal %s: %w", path, err)
	}
	return w, nil
}

// replayJournal validates the meta record against the spec and feeds
// the outcome records to add, stopping at the first one that does not
// decode or that add refuses.
func replayJournal(recs []journal.Record, meta StudySpec, add func(CellOutcome) error) error {
	if recs[0].Kind != kindMeta {
		return fmt.Errorf("first record is %q, not %q", recs[0].Kind, kindMeta)
	}
	var got StudySpec
	if err := json.Unmarshal(recs[0].Data, &got); err != nil {
		return fmt.Errorf("meta record: %w", err)
	}
	if diff := diffMeta(got, meta); len(diff) > 0 {
		return fmt.Errorf("recorded under a different spec:\n  %s\nremove the journal, or pass a different -journal path, or restore the knobs above",
			strings.Join(diff, "\n  "))
	}
	for _, r := range recs[1:] {
		if r.Kind != kindOutcome {
			// Journals written before outcomes were the one record
			// shape hold golden/cell/failure records; nothing reads
			// those any more.
			return fmt.Errorf("%q record is not from this journal format; remove the journal and rerun (finished cells are recomputed)", r.Kind)
		}
		var o CellOutcome
		if err := json.Unmarshal(r.Data, &o); err != nil {
			return fmt.Errorf("outcome record: %w", err)
		}
		if err := add(o); err != nil {
			return err
		}
	}
	return nil
}

// diffMeta renders a field-level diff of a journal's stored spec
// fingerprint against the current one, one line per differing knob, so
// a rejected resume says exactly which knob changed instead of an
// opaque "fingerprint mismatch". Empty when the fingerprints match.
func diffMeta(stored, current StudySpec) []string {
	var out []string
	scalar := func(field string, s, c any) {
		if s != c {
			out = append(out, fmt.Sprintf("%s: journal has %v, current spec has %v", field, s, c))
		}
	}
	list := func(field string, s, c []string) {
		if len(s) != len(c) {
			out = append(out, fmt.Sprintf("%s: journal has %d entries [%s], current spec has %d [%s]",
				field, len(s), strings.Join(s, " "), len(c), strings.Join(c, " ")))
			return
		}
		for i := range s {
			if s[i] != c[i] {
				out = append(out, fmt.Sprintf("%s[%d]: journal has %q, current spec has %q", field, i, s[i], c[i]))
			}
		}
	}
	list("Machines", stored.Machines, current.Machines)
	list("Benches", stored.Benches, current.Benches)
	if len(stored.Sizes) != len(current.Sizes) {
		out = append(out, fmt.Sprintf("Sizes: journal has %d entries %v, current spec has %d %v",
			len(stored.Sizes), stored.Sizes, len(current.Sizes), current.Sizes))
	} else {
		for i := range stored.Sizes {
			if stored.Sizes[i] != current.Sizes[i] {
				bench := fmt.Sprintf("Sizes[%d]", i)
				if i < len(current.Benches) {
					bench = fmt.Sprintf("Sizes[%d] (%s)", i, current.Benches[i])
				}
				scalar(bench, stored.Sizes[i], current.Sizes[i])
			}
		}
	}
	list("Levels", stored.Levels, current.Levels)
	list("Targets", stored.Targets, current.Targets)
	scalar("Faults", stored.Faults, current.Faults)
	scalar("Seed", stored.Seed, current.Seed)
	scalar("Prune", stored.Prune, current.Prune)
	return out
}
