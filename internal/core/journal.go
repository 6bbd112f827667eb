// Study journaling: the adapter between the generic durable record log
// (internal/journal) and the study engine. The journal is a meta record
// pinning the spec followed by one outcome record per finished cell —
// the same CellOutcome the scheduler emits and remote workers report —
// and replaying it is Assembler.Add in file order, so a resumed run
// merges exactly what the interrupted one had merged and the final
// study.json is byte-identical either way.
package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"sevsim/internal/journal"
)

// Journal record kinds. The meta record is always first; every other
// record is the CellOutcome of one finished cell, failures included, so
// a resume reproduces quarantines instead of retrying them forever.
const (
	kindMeta    = "meta"
	kindOutcome = "outcome"
)

// metaRecord fingerprints the spec a journal belongs to. Everything
// that can change a result is included; execution knobs that cannot
// (parallelism, progress, retries, the cache and the like) are not, so a
// study may be resumed with different ones.
type metaRecord struct {
	Machines []string
	Benches  []string
	Sizes    []int
	Levels   []string
	Targets  []string
	Faults   int
	Seed     int64
	Prune    bool
}

// fingerprint derives the meta record from the spec. Everything that
// can change a result must be reachable from here.
// TestFingerprintIgnoresEphemeralKnobs perturbs every Spec field: a
// fingerprinted field must change the record, and an ephemeral knob,
// whose row says why a resume may change it, must not.
func (s Spec) fingerprint() metaRecord {
	m := metaRecord{
		Sizes:  s.resolveSizes(),
		Faults: s.Faults,
		Seed:   s.Seed,
		Prune:  s.Prune,
	}
	for _, cfg := range s.Machines {
		m.Machines = append(m.Machines, cfg.Name)
	}
	for _, b := range s.Benchmarks {
		m.Benches = append(m.Benches, b.Name)
	}
	for _, l := range s.Levels {
		m.Levels = append(m.Levels, l.String())
	}
	for _, t := range s.Targets {
		m.Targets = append(m.Targets, t.Name())
	}
	return m
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
func openStudyJournal(path string, meta metaRecord, add func(CellOutcome) error) (*journal.Writer, error) {
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
func replayJournal(recs []journal.Record, meta metaRecord, add func(CellOutcome) error) error {
	if recs[0].Kind != kindMeta {
		return fmt.Errorf("first record is %q, not %q", recs[0].Kind, kindMeta)
	}
	var got metaRecord
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
func diffMeta(stored, current metaRecord) []string {
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
