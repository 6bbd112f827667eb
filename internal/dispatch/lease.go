package dispatch

import (
	"fmt"
	"sort"
	"time"

	"sevsim/internal/core"
)

// cellState is one cell's position in the lease lifecycle:
//
//	pending ──grant──▶ leased ──complete──▶ done
//	   ▲                  │
//	   └──expire/fail─────┘   (attempts++ at grant; at maxAttempts the
//	                           expire/fail edge lands in quarantined)
//
// done and quarantined are terminal. A completion is accepted whatever
// lease (if any) holds the cell, so a worker finishing after its lease
// expired still lands its result. Which of two completions, or of a
// completion and a quarantine, is first is the Assembler's call: the
// coordinator marks a slot only after the outcome was merged.
type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellQuarantined
)

func (s cellState) String() string {
	switch s {
	case cellPending:
		return "pending"
	case cellLeased:
		return "leased"
	case cellDone:
		return "done"
	case cellQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("cellState(%d)", int(s))
}

// cellSlot tracks one cell.
type cellSlot struct {
	ref      core.CellRef
	state    cellState
	attempts int    // lease grants so far
	lease    string // current lease ID while leased
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

// leaseTable is the coordinator's soft state for one study: which
// cells are pending, leased, done, or quarantined, and which leases
// are outstanding. It is rebuilt from the journal on restart (done and
// quarantined cells replayed; everything else pending), so none of it
// is persisted. Not goroutine-safe; the coordinator serializes access.
type leaseTable struct {
	slots  []cellSlot
	byKey  map[string]int // cell key -> slot index
	leases map[string]*lease
	budget map[string]*workerState

	ttl         time.Duration
	maxAttempts int
	maxStrikes  int
	nextLease   int

	done        int
	quarantined int
}

func newLeaseTable(cells []core.CellRef, ttl time.Duration, maxAttempts, maxStrikes int) *leaseTable {
	t := &leaseTable{
		byKey:       make(map[string]int, len(cells)),
		leases:      map[string]*lease{},
		budget:      map[string]*workerState{},
		ttl:         ttl,
		maxAttempts: maxAttempts,
		maxStrikes:  maxStrikes,
	}
	for i, ref := range cells {
		t.slots = append(t.slots, cellSlot{ref: ref})
		t.byKey[ref.Key()] = i
	}
	return t
}

// markDone records a cell completed outside the lease flow (journal
// replay on coordinator restart).
func (t *leaseTable) markDone(key string) {
	if i, ok := t.byKey[key]; ok && t.slots[i].state != cellDone {
		t.setState(i, cellDone)
	}
}

// markQuarantined records a quarantine replayed from the journal.
func (t *leaseTable) markQuarantined(key string) {
	if i, ok := t.byKey[key]; ok && t.slots[i].state == cellPending {
		t.setState(i, cellQuarantined)
	}
}

func (t *leaseTable) setState(i int, s cellState) {
	switch t.slots[i].state {
	case cellDone:
		t.done--
	case cellQuarantined:
		t.quarantined--
	}
	t.slots[i].state = s
	switch s {
	case cellDone:
		t.done++
	case cellQuarantined:
		t.quarantined++
	}
}

// settled reports whether every cell is terminal.
func (t *leaseTable) settled() bool { return t.done+t.quarantined == len(t.slots) }

// counts returns (done, leased, quarantined, workers-with-leases).
func (t *leaseTable) counts() (done, leased, quarantined, workers int) {
	for _, s := range t.slots {
		if s.state == cellLeased {
			leased++
		}
	}
	seen := map[string]bool{}
	for _, l := range t.leases { //lint:ordered set insertion; only the cardinality is read
		seen[l.worker] = true
	}
	return t.done, leased, t.quarantined, len(seen)
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
		if t.slots[i].state != cellPending {
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
		t.slots[i].state = cellLeased
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

// complete marks one cell done, regardless of which lease (if any)
// currently holds it: first completion wins, later ones are
// duplicates. Returns whether the result should be merged.
func (t *leaseTable) complete(worker, key string) (accepted bool) {
	i, ok := t.byKey[key]
	if !ok || t.slots[i].state == cellDone {
		return false
	}
	t.detach(i)
	t.setState(i, cellDone)
	t.slots[i].lease = ""
	if w, ok := t.budget[worker]; ok && w.strikes > 0 {
		w.strikes--
	}
	return true
}

// fail reports a worker-side failure of one leased cell. The cell goes
// back to pending — or to quarantined once its grant count reaches
// maxAttempts. Returns true when the cell was quarantined by this call.
func (t *leaseTable) fail(worker, key, errText string, _ time.Time) (quarantined bool) {
	i, ok := t.byKey[key]
	if !ok {
		return false
	}
	s := &t.slots[i]
	if s.state != cellLeased && s.state != cellPending {
		return false
	}
	t.detach(i)
	s.lease = ""
	s.lastErr = errText
	if w, ok := t.budget[worker]; ok {
		w.strikes++
	}
	if s.attempts >= t.maxAttempts {
		t.setState(i, cellQuarantined)
		return true
	}
	t.setState(i, cellPending)
	return false
}

// expire sweeps leases past their deadline: their unfinished cells go
// back to pending (or quarantine at maxAttempts), and the late worker
// is charged one strike per expired lease. Returns the cells newly
// quarantined by the sweep.
func (t *leaseTable) expire(now time.Time) (quarantined []core.CellRef) {
	var ids []string
	for id, l := range t.leases { //lint:ordered collected IDs are sorted before use
		if now.After(l.deadline) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		l := t.leases[id]
		delete(t.leases, id)
		if w, ok := t.budget[l.worker]; ok {
			w.strikes++
		}
		for _, i := range l.cells {
			s := &t.slots[i]
			if s.state != cellLeased || s.lease != l.id {
				continue
			}
			s.lease = ""
			if s.lastErr == "" {
				s.lastErr = fmt.Sprintf("lease %s to %s expired", l.id, l.worker)
			}
			if s.attempts >= t.maxAttempts {
				t.setState(i, cellQuarantined)
				quarantined = append(quarantined, s.ref)
			} else {
				t.setState(i, cellPending)
			}
		}
	}
	return quarantined
}

// detach removes slot i from whatever lease holds it, dropping the
// lease once it owes nothing.
func (t *leaseTable) detach(i int) {
	id := t.slots[i].lease
	if id == "" {
		return
	}
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

// slot returns the slot for a cell key.
func (t *leaseTable) slot(key string) (cellSlot, bool) {
	i, ok := t.byKey[key]
	if !ok {
		return cellSlot{}, false
	}
	return t.slots[i], true
}
