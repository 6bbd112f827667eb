package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"sevsim/internal/core"
)

// testCells is one unit of n cells.
func testCells(n int) []core.CellRef { return testUnits(1, n) }

// testUnits is units units ("O0", "O1", ...) of per cells each, in
// enumeration order.
func testUnits(units, per int) []core.CellRef {
	var out []core.CellRef
	for u := 0; u < units; u++ {
		for _, target := range []string{"RF", "ROB.pc", "L1D.data", "IQ.op", "LQ.addr", "SQ.data", "BP.bht", "L1I.data"}[:per] {
			out = append(out, core.CellRef{March: "m", Bench: "b", Level: fmt.Sprintf("O%d", u), Target: target})
		}
	}
	return out
}

func at(sec int) time.Time { return time.Unix(int64(sec), 0) }

// ledger stands in for the Assembler: the cells merged so far.
type ledger map[core.CellRef]bool

func (l ledger) has(ref core.CellRef) bool { return l[ref] }

// merge is the coordinator's commit in miniature: the first completion
// of a cell is merged and releases it from the table; a later one is a
// duplicate and touches nothing.
func (l ledger) merge(tbl *leaseTable, worker string, ref core.CellRef) bool {
	if l[ref] {
		return false
	}
	l[ref] = true
	tbl.complete(worker, ref)
	return true
}

func TestLeaseLifecycle(t *testing.T) {
	cells, merged := testUnits(2, 2), ledger{}
	tbl := newLeaseTable(cells, merged.has, 10*time.Second, 3, 3)
	l := tbl.acquire("w1", at(0))
	if l == nil || len(l.cells) != 2 {
		t.Fatalf("acquire: %+v", l)
	}
	if s := tbl.slot(cells[0]); s.lease != l.id || s.attempts != 1 {
		t.Fatalf("leased slot: %+v", s)
	}
	// A second worker gets the next unit, not the leased one.
	l2 := tbl.acquire("w2", at(1))
	if l2 == nil || len(l2.cells) != 2 {
		t.Fatalf("second acquire: %+v", l2)
	}
	if tbl.acquire("w3", at(1)) != nil {
		t.Fatal("acquired cells while everything is leased")
	}
	for _, ref := range cells {
		merged.merge(tbl, "w1", ref)
	}
	if len(tbl.leases) != 0 {
		t.Fatalf("%d leases outstanding after completion", len(tbl.leases))
	}
	if tbl.acquire("w3", at(2)) != nil {
		t.Fatal("acquired merged cells")
	}
}

// TestDoubleCompletionDedup pins the lease-expiry race: worker A's
// lease expires, the cells are re-leased to worker B, and both report
// them. Whichever completion is merged first releases the cell from
// every lease; the other is a duplicate, and nothing is granted again.
func TestDoubleCompletionDedup(t *testing.T) {
	cells, merged := testCells(2), ledger{}
	tbl := newLeaseTable(cells, merged.has, 10*time.Second, 3, 10)
	la := tbl.acquire("a", at(0))
	if la == nil {
		t.Fatal("no lease")
	}
	// a goes silent; the lease expires and the cells are re-leased.
	if q := tbl.expire(at(11)); len(q) != 0 {
		t.Fatalf("first expiry quarantined %v", q)
	}
	lb := tbl.acquire("b", at(12))
	if lb == nil || len(lb.cells) != 2 {
		t.Fatalf("re-lease after expiry: %+v", lb)
	}
	// b completes first; a's late report of the same cell is a dup.
	if !merged.merge(tbl, "b", cells[0]) || merged.merge(tbl, "a", cells[0]) {
		t.Fatal("first completion not merged alone")
	}
	// And the reverse order on the other cell: the zombie worker a
	// lands its result first, releasing it from b's lease.
	if !merged.merge(tbl, "a", cells[1]) {
		t.Fatal("late completion from expired lease rejected")
	}
	if len(tbl.leases) != 0 {
		t.Fatalf("b's lease still owes %v after the zombie completed it", tbl.leases[lb.id].cells)
	}
	if l := tbl.acquire("c", at(13)); l != nil || len(tbl.expire(at(30))) != 0 {
		t.Fatalf("merged cells granted or owed again: %+v", l)
	}
}

// TestExpiryQuarantinesAtMaxAttempts: the table hands a cell whose last
// grant expired back as exhausted, never grants it again, and keeps
// handing it back until the Assembler has it. The Assembler is first
// wins, so a worker's very late completion of the quarantined cell is a
// duplicate and the study keeps the quarantine.
func TestExpiryQuarantinesAtMaxAttempts(t *testing.T) {
	cells, merged := testCells(1), ledger{}
	tbl := newLeaseTable(cells, merged.has, 10*time.Second, 2, 100)
	for round := 0; round < 2; round++ {
		l := tbl.acquire("w", at(round*20))
		if l == nil {
			t.Fatalf("round %d: no lease", round)
		}
		q := tbl.expire(at(round*20 + 11))
		switch {
		case round == 0 && len(q) != 0:
			t.Fatalf("quarantined on attempt 1: %v", q)
		case round == 1 && len(q) != 1:
			t.Fatalf("not quarantined at max attempts: %v", q)
		}
	}
	if tbl.acquire("w", at(40)) != nil {
		t.Fatal("cell out of attempts granted again")
	}
	if q := tbl.expire(at(41)); len(q) != 1 {
		t.Fatalf("unmerged quarantine not handed back by the next sweep: %v", q)
	}
	merged.merge(tbl, "", cells[0])
	if q := tbl.expire(at(42)); len(q) != 0 {
		t.Fatalf("merged quarantine handed back: %v", q)
	}

	// The same through a coordinator: one unit, every cell quarantined
	// by expiry, then the late completion of one of them.
	wire := StudySpec{
		Machines: []string{"Cortex-A15-like"}, Benches: []string{"gsm"}, Sizes: []int{2},
		Levels: []string{"O0"}, Targets: []string{"RF", "ROB.pc", "L1D.data"}, Faults: 4, Seed: 7,
	}
	now := at(0)
	coord, err := OpenCoordinator(Options{Dir: t.TempDir(), LeaseTTL: 10 * time.Second, MaxAttempts: 2, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sub, err := coord.Submit(wire)
	if err != nil {
		t.Fatal(err)
	}
	var g *LeaseGrant
	for round := 0; round < 2; round++ {
		if g, err = coord.Lease(LeaseRequest{Worker: "w"}); err != nil || g == nil {
			t.Fatalf("round %d: %+v %v", round, g, err)
		}
		now = now.Add(11 * time.Second)
		coord.Sweep()
	}
	quarantined, ok := coord.Result(sub.ID)
	if !ok {
		t.Fatal("study with every cell out of attempts did not complete")
	}
	spec, _ := wire.Spec()
	out, err := spec.RunCells(context.Background(), g.Cells[:1])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := coord.Complete(CompleteRequest{Worker: "w", LeaseID: g.LeaseID, StudyID: sub.ID, Outcomes: out})
	if err != nil || resp.Accepted != 0 || resp.Duplicates != 1 {
		t.Fatalf("late completion of a quarantined cell: %+v %v", resp, err)
	}
	var st core.Study
	if err := json.Unmarshal(quarantined, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 3 || st.Failed[0].Target != "RF" || st.Failed[0].Stage != "dispatch" || st.Failed[0].Retries != 1 {
		t.Fatalf("merged bytes do not carry the quarantines: %+v", st.Failed)
	}
	if again, _ := coord.Result(sub.ID); !bytes.Equal(again, quarantined) {
		t.Fatal("late completion moved the merged bytes")
	}
}

func TestFailReturnsCellToPoolThenQuarantines(t *testing.T) {
	cells, merged := testCells(1), ledger{}
	tbl := newLeaseTable(cells, merged.has, 10*time.Second, 2, 100)
	tbl.acquire("w", at(0))
	if tbl.fail("w", cells[0], "boom") {
		t.Fatal("quarantined on first failure")
	}
	if s := tbl.slot(cells[0]); s.lease != "" || s.lastErr != "boom" {
		t.Fatalf("after first fail: %+v", s)
	}
	if tbl.acquire("w", at(2)) == nil {
		t.Fatal("failed cell not granted again")
	}
	if !tbl.fail("w", cells[0], "boom again") {
		t.Fatal("not quarantined at max attempts")
	}
	if s := tbl.slot(cells[0]); s.lastErr != "boom again" {
		t.Fatalf("lastErr %q", s.lastErr)
	}
	// Until the quarantine is merged, a retried report owes it again.
	if !tbl.fail("w", cells[0], "boom again") {
		t.Fatal("retried failure report of an unmerged quarantine dropped")
	}
	merged.merge(tbl, "", cells[0])
	if tbl.fail("w", cells[0], "boom again") {
		t.Fatal("failure of a merged cell owes a quarantine")
	}
}

// TestWorkerErrorBudget checks suspension and the pressure valve: a
// worker out of budget gets nothing while others remain, but when
// every worker is suspended all budgets reset rather than deadlocking
// the study.
func TestWorkerErrorBudget(t *testing.T) {
	cells, merged := testUnits(8, 1), ledger{}
	tbl := newLeaseTable(cells, merged.has, 10*time.Second, 100, 2)
	// Worker bad earns two strikes via failures.
	tbl.acquire("bad", at(0))
	tbl.fail("bad", cells[0], "x")
	tbl.acquire("bad", at(2))
	tbl.fail("bad", cells[0], "x")
	if !tbl.suspended("bad") {
		t.Fatal("worker not suspended at budget")
	}
	// good is alive, so bad gets nothing.
	tbl.acquire("good", at(4))
	if tbl.acquire("bad", at(5)) != nil {
		t.Fatal("suspended worker got a lease while another is live")
	}
	// A completion repays a strike and lifts the suspension.
	merged.merge(tbl, "good", cells[0])
	w := tbl.budget["bad"]
	w.strikes--
	if tbl.suspended("bad") {
		t.Fatal("still suspended below budget")
	}
	w.strikes++

	// Now suspend good too: with everyone suspended, the valve opens.
	tbl.budget["good"].strikes = 2
	l := tbl.acquire("bad", at(6))
	if l == nil {
		t.Fatal("all-suspended pressure valve did not open")
	}
	if tbl.suspended("bad") || tbl.suspended("good") {
		t.Fatal("budgets not reset by the pressure valve")
	}
}

func TestHeartbeatExtendsDeadline(t *testing.T) {
	tbl := newLeaseTable(testCells(1), ledger{}.has, 10*time.Second, 3, 3)
	l := tbl.acquire("w", at(0))
	if !tbl.heartbeat(l.id, at(8)) {
		t.Fatal("heartbeat rejected")
	}
	if q := tbl.expire(at(15)); len(q) != 0 {
		t.Fatal("expired despite heartbeat")
	}
	if len(tbl.leases) != 1 {
		t.Fatal("lease dropped despite heartbeat")
	}
	tbl.expire(at(19))
	if len(tbl.leases) != 0 {
		t.Fatal("lease survived past extended deadline")
	}
	if tbl.heartbeat(l.id, at(20)) {
		t.Fatal("heartbeat accepted for expired lease")
	}
}
