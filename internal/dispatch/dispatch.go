// Package dispatch turns the study engine into a fault-tolerant
// distributed service: a Coordinator decomposes a study spec into
// cell-granular work items (core.CellRef), leases them a unit at a time
// to worker processes over HTTP/JSON with per-lease deadlines and
// heartbeats, reassigns the cells of expired or failed leases,
// deduplicates double-completions by cell key, quarantines persistently
// failing cells, and merges the outcomes — via core.Assembler — into a
// study.json byte-identical to a clean single-process run, regardless
// of worker count, death schedule, or completion order.
//
// Durability mirrors the single-process engine's, at the same grain: a
// report's accepted outcomes — one unit — are written to the
// coordinator's journal (internal/journal) and fsync'd once before the
// report is acknowledged, so a coordinator killed at any point resumes
// with no acknowledged cell lost; leases are deliberately not journaled
// — they are soft state that expires and reassigns itself. A worker
// journals each lease in its own file until the report is acknowledged,
// so a worker killed mid-lease and granted the same cells again replays
// the finished ones.
//
// The failure matrix, the lease state machine, and the merge
// determinism argument are documented in DESIGN.md §15.
package dispatch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"sevsim/internal/artcache"
	"sevsim/internal/compiler"
	"sevsim/internal/core"
	"sevsim/internal/faultinj"
	"sevsim/internal/workloads"
)

// StudySpec is the wire form of a study: everything result-affecting
// in a core.Spec, expressed as names so it serializes. Execution knobs
// (parallelism, journaling paths, watchdogs) stay host-local — the
// coordinator and each worker choose their own.
type StudySpec struct {
	Machines []string // machine config names (core.MachineConfig)
	Benches  []string // benchmark names (workloads.ByName)
	Sizes    []int    // per-bench sizes, parallel to Benches (nil: defaults)
	Levels   []string // optimization levels ("O0".."O3")
	Targets  []string // structure fields (faultinj.TargetByName); nil: all
	Faults   int
	Seed     int64
	Prune    bool

	// KeepGoing and Retries shape worker-side failure handling exactly
	// as in a local run; they are carried so quarantine records merge
	// byte-identically to a local keep-going run's.
	KeepGoing bool
	Retries   int

	// CacheMaxMB advises workers how much disk their prep-artifact
	// cache may use for this study (0: no advice). It is pure execution
	// policy — a cache hit decodes to state bit-identical to a fresh
	// prep — so ID() excludes it: the same study submitted with a
	// different cache bound is the same study.
	CacheMaxMB int64 `json:",omitempty"`
}

// Normalize fills defaults (benchmark sizes, the full target set) and
// validates every name resolves. The normalized spec is what the
// study ID hashes, so a spec submitted with explicit defaults and one
// submitted with them elided are the same study.
func (w StudySpec) Normalize() (StudySpec, error) {
	if len(w.Machines) == 0 || len(w.Benches) == 0 || len(w.Levels) == 0 {
		return w, fmt.Errorf("dispatch: spec needs at least one machine, benchmark, and level")
	}
	if w.Faults <= 0 {
		return w, fmt.Errorf("dispatch: spec needs a positive fault count")
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
				return w, fmt.Errorf("dispatch: %w", err)
			}
			w.Sizes[i] = b.DefaultSize
		}
	}
	if len(w.Sizes) != len(w.Benches) {
		return w, fmt.Errorf("dispatch: %d sizes for %d benchmarks", len(w.Sizes), len(w.Benches))
	}
	if _, err := w.Spec(); err != nil {
		return w, err
	}
	return w, nil
}

// ID derives the study's content-addressed identity from the
// normalized spec, so resubmitting the same study is idempotent.
func (w StudySpec) ID() string {
	// Cache policy shapes worker disk use, never results; zeroing it on
	// this value-receiver copy keeps it out of the identity.
	w.CacheMaxMB = 0
	data, err := json.Marshal(w)
	if err != nil {
		// Marshalling a struct of strings and ints cannot fail.
		panic(fmt.Sprintf("dispatch: marshal spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return "st-" + hex.EncodeToString(sum[:8])
}

// Spec resolves the wire form back to an executable core.Spec. The
// resolution is deterministic, so every worker and the coordinator
// agree on cell enumeration, seeds, and the journal fingerprint.
func (w StudySpec) Spec() (core.Spec, error) {
	s := core.Spec{
		Faults:    w.Faults,
		Seed:      w.Seed,
		Prune:     w.Prune,
		KeepGoing: w.KeepGoing,
		Retries:   w.Retries,
	}
	for _, name := range w.Machines {
		cfg, ok := core.MachineConfig(name)
		if !ok {
			return core.Spec{}, fmt.Errorf("dispatch: unknown machine config %q", name)
		}
		s.Machines = append(s.Machines, cfg)
	}
	for _, name := range w.Benches {
		b, err := workloads.ByName(name)
		if err != nil {
			return core.Spec{}, fmt.Errorf("dispatch: %w", err)
		}
		s.Benchmarks = append(s.Benchmarks, b)
	}
	for _, name := range w.Levels {
		level, err := optLevel(name)
		if err != nil {
			return core.Spec{}, err
		}
		s.Levels = append(s.Levels, level)
	}
	for _, name := range w.Targets {
		t, ok := faultinj.TargetByName(name)
		if !ok {
			return core.Spec{}, fmt.Errorf("dispatch: unknown injection target %q", name)
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

// WireSpec renders a core.Spec as its wire form (sizes resolved), for
// clients that build specs programmatically.
func WireSpec(s core.Spec) StudySpec {
	w := StudySpec{
		Faults:    s.Faults,
		Seed:      s.Seed,
		Prune:     s.Prune,
		KeepGoing: s.KeepGoing,
		Retries:   s.Retries,
	}
	for _, cfg := range s.Machines {
		w.Machines = append(w.Machines, cfg.Name)
	}
	for _, b := range s.Benchmarks {
		w.Benches = append(w.Benches, b.Name)
		size := b.DefaultSize
		if s.Size != nil {
			size = s.Size(b)
		}
		w.Sizes = append(w.Sizes, size)
	}
	for _, l := range s.Levels {
		w.Levels = append(w.Levels, l.String())
	}
	for _, t := range s.Targets {
		w.Targets = append(w.Targets, t.Name())
	}
	return w
}

// optLevel parses an optimization-level name ("O2", "o2", "2").
func optLevel(name string) (compiler.OptLevel, error) {
	for _, l := range compiler.Levels {
		if name == l.String() || name == l.String()[1:] || name == "o"+l.String()[1:] {
			return l, nil
		}
	}
	return 0, fmt.Errorf("dispatch: unknown optimization level %q (use O0..O3)", name)
}

// --- protocol messages -------------------------------------------------------

// SubmitResponse acknowledges a study submission.
type SubmitResponse struct {
	ID       string
	Cells    int  // total campaign cells in the study
	Existing bool // the study was already submitted (idempotent resubmit)
}

// LeaseRequest asks for work on behalf of a named worker.
type LeaseRequest struct {
	Worker string
}

// LeaseGrant hands a worker the pending cells of one (march, bench,
// level) unit. The worker must complete (or fail) them before the TTL
// runs out, extending it with heartbeats; an expired lease's
// unfinished cells are reassigned.
type LeaseGrant struct {
	LeaseID string
	StudyID string
	Spec    StudySpec
	Cells   []core.CellRef
	TTL     time.Duration // heartbeat interval guidance: TTL/3
}

// HeartbeatRequest extends a lease's deadline.
type HeartbeatRequest struct {
	Worker  string
	LeaseID string
}

// HeartbeatResponse tells the worker where its lease stands. Known is
// false after a coordinator restart (leases are soft state): the
// worker keeps going — its completions are accepted by cell key — but
// must expect cells to have been re-leased. Cancel is a definitive
// "stop working on this lease" (study done or cancelled).
type HeartbeatResponse struct {
	Known  bool
	Cancel bool
}

// CompleteRequest reports a lease's outcomes. Outcomes are merged
// idempotently by cell key; reporting after lease expiry is fine (the
// work is done — the merge dedups if the cell was also recomputed).
type CompleteRequest struct {
	Worker   string
	LeaseID  string
	StudyID  string
	Outcomes []core.CellOutcome

	// Cache is the worker's prep-artifact cache delta over this lease
	// (zero when the worker runs uncached), so the coordinator can
	// aggregate cache effectiveness per worker and per study.
	Cache artcache.Stats
}

// CompleteResponse reports how many outcomes were newly merged and how
// many were duplicates of already-complete cells.
type CompleteResponse struct {
	Accepted   int
	Duplicates int
}

// FailRequest reports that a lease's cells could not be computed.
type FailRequest struct {
	Worker  string
	LeaseID string
	StudyID string
	Cells   []core.CellRef
	Err     string
}

// StatusEvent is one line of a study's progress stream and the
// response body of a status snapshot: the lease-table counters plus
// the study's lifecycle state.
type StatusEvent struct {
	Study       string
	State       string // "running", "complete", "failed"
	Done        int
	Total       int
	Leased      int
	Quarantined int
	Workers     int    // workers currently holding leases of this study
	Cell        string `json:",omitempty"` // last merged cell, on change events
	Worker      string `json:",omitempty"` // who completed it

	// Cache aggregates the prep-artifact cache deltas reported with
	// this study's completions; CacheByWorker splits the same counters
	// by worker name. Both stay zero/absent when every worker runs
	// uncached.
	Cache         artcache.Stats
	CacheByWorker map[string]artcache.Stats `json:",omitempty"`

	// PrunedDUE counts injections this study's completions proved
	// crash-certain statically instead of simulating (the DUE pruner
	// tier); PrunedDUEByWorker splits the same counter by worker name.
	// Both stay zero/absent when no worker pruned a DUE.
	PrunedDUE         int            `json:",omitempty"`
	PrunedDUEByWorker map[string]int `json:",omitempty"`
}
