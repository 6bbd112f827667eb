package dispatch

import (
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

func TestLeaseLifecycle(t *testing.T) {
	tbl := newLeaseTable(testUnits(2, 2), 10*time.Second, 3, 3)
	l := tbl.acquire("w1", at(0))
	if l == nil || len(l.cells) != 2 {
		t.Fatalf("acquire: %+v", l)
	}
	if s, _ := tbl.slot("m/b/O0/RF"); s.state != cellLeased || s.attempts != 1 {
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
	for _, ref := range testUnits(2, 2) {
		if !tbl.complete("w1", ref.Key()) {
			t.Fatalf("complete %s rejected", ref)
		}
	}
	if !tbl.settled() {
		t.Fatal("table not settled after completing every cell")
	}
	if len(tbl.leases) != 0 {
		t.Fatalf("%d leases outstanding after completion", len(tbl.leases))
	}
}

// TestDoubleCompletionDedup pins the lease-expiry race: worker A's
// lease expires, the cell is re-leased to worker B, and both report
// it. The first completion wins; the second is a duplicate and must
// not double-count the cell.
func TestDoubleCompletionDedup(t *testing.T) {
	tbl := newLeaseTable(testCells(2), 10*time.Second, 3, 10)
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
	if !tbl.complete("b", "m/b/O0/RF") {
		t.Fatal("first completion rejected")
	}
	if tbl.complete("a", "m/b/O0/RF") {
		t.Fatal("second completion of the same cell accepted")
	}
	// And the reverse order on the other cell: the zombie worker a
	// lands its result first, b's recompute is the dup.
	if !tbl.complete("a", "m/b/O0/ROB.pc") {
		t.Fatal("late completion from expired lease rejected")
	}
	if tbl.complete("b", "m/b/O0/ROB.pc") {
		t.Fatal("recompute accepted after zombie completion")
	}
	if tbl.done != 2 || !tbl.settled() {
		t.Fatalf("done=%d settled=%v, want 2/true", tbl.done, tbl.settled())
	}
}

func TestExpiryQuarantinesAtMaxAttempts(t *testing.T) {
	tbl := newLeaseTable(testCells(1), 10*time.Second, 2, 100)
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
	if s, _ := tbl.slot("m/b/O0/RF"); s.state != cellQuarantined {
		t.Fatalf("state %v, want quarantined", s.state)
	}
	// A very late completion can still rescue a quarantined cell.
	if !tbl.complete("w", "m/b/O0/RF") {
		t.Fatal("late completion of quarantined cell rejected")
	}
}

func TestFailReturnsCellToPoolThenQuarantines(t *testing.T) {
	tbl := newLeaseTable(testCells(1), 10*time.Second, 2, 100)
	tbl.acquire("w", at(0))
	if tbl.fail("w", "m/b/O0/RF", "boom", at(1)) {
		t.Fatal("quarantined on first failure")
	}
	if s, _ := tbl.slot("m/b/O0/RF"); s.state != cellPending || s.lastErr != "boom" {
		t.Fatalf("after first fail: %+v", s)
	}
	tbl.acquire("w", at(2))
	if !tbl.fail("w", "m/b/O0/RF", "boom again", at(3)) {
		t.Fatal("not quarantined at max attempts")
	}
	if s, _ := tbl.slot("m/b/O0/RF"); s.lastErr != "boom again" {
		t.Fatalf("lastErr %q", s.lastErr)
	}
}

// TestWorkerErrorBudget checks suspension and the pressure valve: a
// worker out of budget gets nothing while others remain, but when
// every worker is suspended all budgets reset rather than deadlocking
// the study.
func TestWorkerErrorBudget(t *testing.T) {
	tbl := newLeaseTable(testUnits(8, 1), 10*time.Second, 100, 2)
	// Worker bad earns two strikes via failures.
	tbl.acquire("bad", at(0))
	tbl.fail("bad", "m/b/O0/RF", "x", at(1))
	tbl.acquire("bad", at(2))
	tbl.fail("bad", "m/b/O0/RF", "x", at(3))
	if !tbl.suspended("bad") {
		t.Fatal("worker not suspended at budget")
	}
	// good is alive, so bad gets nothing.
	tbl.acquire("good", at(4))
	if tbl.acquire("bad", at(5)) != nil {
		t.Fatal("suspended worker got a lease while another is live")
	}
	// A completion repays a strike and lifts the suspension.
	if !tbl.complete("good", "m/b/O0/RF") {
		t.Fatal("completion rejected")
	}
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
	tbl := newLeaseTable(testCells(1), 10*time.Second, 3, 3)
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
