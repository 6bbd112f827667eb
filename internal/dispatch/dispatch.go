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
// Durability is the single-process engine's, in its format and at its
// grain: the coordinator keeps each study in a study journal of its own
// (core.OpenJournal, Options.Dir/<study ID>.journal), and a report's
// accepted outcomes — one unit — are written there and fsync'd once
// before the report is acknowledged, so a coordinator killed at any
// point resumes with no acknowledged cell lost; leases are deliberately
// not journaled — they are soft state that expires and reassigns
// itself. A worker journals each lease in its own file until the report
// is acknowledged, so a worker killed mid-lease and granted the same
// cells again replays the finished ones.
//
// The failure matrix, the lease state machine, and the merge
// determinism argument are documented in DESIGN.md §15.
package dispatch

import (
	"time"

	"sevsim/internal/core"
)

// StudySpec is the wire form of a study, the same type as the study
// journal's meta record: everything result-affecting in a core.Spec,
// expressed as names so it serializes. Execution knobs (parallelism,
// journaling paths, the cache) stay host-local — the coordinator and
// each worker choose their own.
type StudySpec = core.StudySpec

// WireSpec renders a core.Spec as its wire form (sizes resolved), for
// clients that build specs programmatically.
func WireSpec(s core.Spec) StudySpec { return s.Wire() }

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
// response body of a status snapshot: the merge's counters, the lease
// table's, and the study's lifecycle state.
type StatusEvent struct {
	Study       string
	State       string // "running" or "complete"
	Done        int    // merged cells, quarantines included
	Total       int
	Leased      int
	Quarantined int    // merged cells whose outcome carries a failure
	Workers     int    // workers currently holding leases of this study
	Cell        string `json:",omitempty"` // last merged cell, on change events
	Worker      string `json:",omitempty"` // who completed it
}
