package dispatch

import (
	"fmt"
	"sort"
	"time"

	"sevsim/internal/core"
)

// cellSlot tracks one cell the Assembler does not have yet:
//
//	pending ──grant──▶ leased ──complete──▶ (merged: the Assembler's)
//	   ▲                  │
//	   └──expire/fail─────┘   (attempts++ at grant)
//
// A cell out of attempts is no longer granted; expire and fail hand it
// back to the coordinator, which merges a quarantine outcome for it.
// Whether a cell is finished is the Assembler's record alone, so a
// quarantine whose journal write fails leaves the cell here, and the
// next sweep or the retried failure report tries again.
type cellSlot struct {
	ref      core.CellRef
	attempts int    // lease grants so far
	lease    string // current lease ID while leased; empty while pending
	lastErr  string // most recent failure report, for the quarantine record
}

// lease is one outstanding grant.
type lease struct {
	id       string
	worker   string
	deadline time.Time
	cells    []int // indices into table.slots still owed by this lease
}

// workerState is the per-worker error budget. Failures and expiries
// charge the budget; a completion repays one unit. A worker that
// exhausts its budget is suspended — it gets no new leases — until
// every worker is suspended, at which point all budgets reset (the
// pressure valve: with nobody left to lease to, suspension would
// deadlock the study even though the cells may be fine).
type workerState struct {
	strikes int
}

// leaseTable is the coordinator's soft state for one study: which of
// the cells the Assembler does not have are leased, how often each was
// granted, and which leases are outstanding. None of it is persisted: a
// restarted coordinator starts every unmerged cell pending. Not
// goroutine-safe; the coordinator serializes access.
type leaseTable struct {
	slots  []cellSlot
	byKey  map[core.CellRef]int // cell -> slot index
	leases map[string]*lease
	budget map[string]*workerState
	merged func(core.CellRef) bool // the Assembler has the cell

	ttl         time.Duration
	maxAttempts int
	maxStrikes  int
	nextLease   int
}

func newLeaseTable(cells []core.CellRef, merged func(core.CellRef) bool, ttl time.Duration, maxAttempts, maxStrikes int) *leaseTable {
	t := &leaseTable{
		byKey:       make(map[core.CellRef]int, len(cells)),
		leases:      map[string]*lease{},
		budget:      map[string]*workerState{},
		merged:      merged,
		ttl:         ttl,
		maxAttempts: maxAttempts,
		maxStrikes:  maxStrikes,
	}
	for i, ref := range cells {
		t.slots = append(t.slots, cellSlot{ref: ref})
		t.byKey[ref] = i
	}
	return t
}

// counts returns (leased cells, workers with leases).
func (t *leaseTable) counts() (leased, workers int) {
	seen := map[string]bool{}
	for _, l := range t.leases { //lint:ordered commutative sum and set insertion; only the cardinality is read
		leased += len(l.cells)
		seen[l.worker] = true
	}
	return leased, len(seen)
}

// exhausted reports whether slot i waits for its quarantine outcome:
// out of attempts, not leased, and not merged.
func (t *leaseTable) exhausted(i int) bool {
	s := &t.slots[i]
	return s.lease == "" && s.attempts >= t.maxAttempts && !t.merged(s.ref)
}

// acquire leases one unit to worker: every pending cell of the first
// (march, bench, level) unit, in enumeration order, that has any. A
// unit is what a worker prepares — one compile, one golden run, one
// bundle decode — so it is also what a lease hands out; after a partial
// completion the re-lease carries only the cells still pending. Returns
// nil when the worker is suspended or nothing is pending.
func (t *leaseTable) acquire(worker string, now time.Time) *lease {
	if t.suspended(worker) {
		if !t.allSuspended() {
			return nil
		}
		// Pressure valve: everyone is suspended, nobody can make
		// progress. Forgive all budgets and carry on.
		for _, w := range t.budget { //lint:ordered uniform reset of every budget
			w.strikes = 0
		}
	}
	var cells []int
	for i := range t.slots {
		if s := &t.slots[i]; s.lease != "" || s.attempts >= t.maxAttempts || t.merged(s.ref) {
			continue
		}
		if len(cells) > 0 && !sameUnit(t.slots[i].ref, t.slots[cells[0]].ref) {
			break // a unit's cells are contiguous: the next unit starts here
		}
		cells = append(cells, i)
	}
	if len(cells) == 0 {
		return nil
	}
	t.nextLease++
	l := &lease{
		id:       fmt.Sprintf("l-%d", t.nextLease),
		worker:   worker,
		deadline: now.Add(t.ttl),
		cells:    cells,
	}
	for _, i := range cells {
		t.slots[i].attempts++
		t.slots[i].lease = l.id
	}
	t.leases[l.id] = l
	if _, ok := t.budget[worker]; !ok {
		t.budget[worker] = &workerState{}
	}
	return l
}

func sameUnit(a, b core.CellRef) bool {
	return a.March == b.March && a.Bench == b.Bench && a.Level == b.Level
}

func (t *leaseTable) suspended(worker string) bool {
	w, ok := t.budget[worker]
	return ok && t.maxStrikes > 0 && w.strikes >= t.maxStrikes
}

func (t *leaseTable) allSuspended() bool {
	if len(t.budget) == 0 {
		return false
	}
	for _, w := range t.budget { //lint:ordered order-insensitive conjunction
		if t.maxStrikes <= 0 || w.strikes < t.maxStrikes {
			return false
		}
	}
	return true
}

// heartbeat extends a lease's deadline. Unknown leases (expired, or
// from before a coordinator restart) report Known=false; the worker
// keeps computing — completion is by cell key, not lease.
func (t *leaseTable) heartbeat(id string, now time.Time) bool {
	l, ok := t.leases[id]
	if !ok {
		return false
	}
	l.deadline = now.Add(t.ttl)
	return true
}

// complete releases a cell the coordinator has merged, whatever lease
// (if any) holds it, and repays one strike of the worker that
// reported it.
func (t *leaseTable) complete(worker string, ref core.CellRef) {
	i, ok := t.byKey[ref]
	if !ok {
		return
	}
	t.detach(i)
	if w, ok := t.budget[worker]; ok && w.strikes > 0 {
		w.strikes--
	}
}

// fail reports a worker-side failure of one unmerged cell: it goes back
// to pending, charging the worker a strike. Returns true when the cell
// is out of attempts, and so owes a quarantine outcome.
func (t *leaseTable) fail(worker string, ref core.CellRef, errText string) (exhausted bool) {
	i, ok := t.byKey[ref]
	if !ok || t.merged(ref) {
		return false
	}
	t.detach(i)
	t.slots[i].lastErr = errText
	if w, ok := t.budget[worker]; ok {
		w.strikes++
	}
	return t.exhausted(i)
}

// expire sweeps leases past their deadline: their unfinished cells go
// back to pending, and the late worker is charged one strike per
// expired lease. Returns every cell out of attempts, in enumeration
// order: those this sweep released and those whose quarantine an
// earlier call could not make durable.
func (t *leaseTable) expire(now time.Time) (exhausted []core.CellRef) {
	var ids []string
	for id, l := range t.leases { //lint:ordered collected IDs are sorted before use
		if now.After(l.deadline) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		l := t.leases[id]
		if w, ok := t.budget[l.worker]; ok {
			w.strikes++
		}
		for _, i := range l.cells {
			if s := &t.slots[i]; s.lastErr == "" {
				s.lastErr = fmt.Sprintf("lease %s to %s expired", l.id, l.worker)
			}
			t.slots[i].lease = ""
		}
		delete(t.leases, id)
	}
	for i := range t.slots {
		if t.exhausted(i) {
			exhausted = append(exhausted, t.slots[i].ref)
		}
	}
	return exhausted
}

// detach removes slot i from whatever lease holds it, dropping the
// lease once it owes nothing.
func (t *leaseTable) detach(i int) {
	id := t.slots[i].lease
	if id == "" {
		return
	}
	t.slots[i].lease = ""
	l, ok := t.leases[id]
	if !ok {
		return
	}
	rest := l.cells[:0]
	for _, c := range l.cells {
		if c != i {
			rest = append(rest, c)
		}
	}
	l.cells = rest
	if len(l.cells) == 0 {
		delete(t.leases, id)
	}
}

// slot returns the slot for a cell.
func (t *leaseTable) slot(ref core.CellRef) cellSlot {
	return t.slots[t.byKey[ref]]
}
