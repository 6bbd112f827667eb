package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sevsim/internal/core"
	"sevsim/internal/journal"
)

// testWire is a fast one-machine study: 12 cells across two prep
// units per level.
func testWire() StudySpec {
	return StudySpec{
		Machines: []string{"Cortex-A15-like"},
		Benches:  []string{"qsort", "gsm"},
		Sizes:    []int{24, 2},
		Levels:   []string{"O0", "O2"},
		Targets:  []string{"RF", "ROB.pc", "L1D.data"},
		Faults:   8,
		Seed:     7,
	}
}

// localBytes runs the wire spec in-process and returns its Save bytes
// — the reference every distributed run must reproduce exactly.
func localBytes(t *testing.T, wire StudySpec) []byte {
	t.Helper()
	spec, err := wire.Spec()
	if err != nil {
		t.Fatal(err)
	}
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSpecNormalizeAndID(t *testing.T) {
	wire := testWire()
	n1, err := wire.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Normalizing is idempotent and fills the target default.
	n2, err := n1.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n1.ID() != n2.ID() {
		t.Fatal("normalize is not idempotent")
	}
	elided := wire
	elided.Sizes = nil
	defaulted := wire
	defaulted.Sizes = []int{300, 3} // the benchmarks' default sizes
	ne, err := elided.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nd, err := defaulted.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ne.ID() != nd.ID() {
		t.Fatal("elided and explicit defaults hash to different studies")
	}
	if ne.ID() == n1.ID() {
		t.Fatal("different sizes hash to the same study")
	}
	policy := n1
	policy.CacheMaxMB = 512
	if policy.ID() != n1.ID() {
		t.Fatal("cache policy changed the study ID; it is execution advice, not identity")
	}
	bad := wire
	bad.Benches = []string{"no-such-bench"}
	if _, err := bad.Normalize(); err == nil {
		t.Fatal("unknown benchmark not rejected")
	}
	// Wire round trip through a resolved spec is lossless.
	spec, err := n1.Spec()
	if err != nil {
		t.Fatal(err)
	}
	back, err := WireSpec(spec).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if back.ID() != n1.ID() {
		t.Fatal("spec -> wire round trip changed the study ID")
	}
}

// TestDistributedStudyEndToEnd is the tentpole acceptance at package
// level: a study submitted over HTTP, computed by three concurrent
// workers, merges to bytes identical to the single-process run.
func TestDistributedStudyEndToEnd(t *testing.T) {
	wire := testWire()
	want := localBytes(t, wire)

	coord, err := OpenCoordinator(Options{
		Dir:      t.TempDir(),
		LeaseTTL: time.Minute,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(NewServer(coord, "unused").Handler)
	defer ts.Close()

	// Submit over HTTP; resubmission is idempotent.
	var sub SubmitResponse
	postJSON(t, ts.URL+"/studies", wire, &sub)
	if sub.Existing || sub.Cells != 12 {
		t.Fatalf("submit: %+v", sub)
	}
	var again SubmitResponse
	postJSON(t, ts.URL+"/studies", wire, &again)
	if !again.Existing || again.ID != sub.ID {
		t.Fatalf("resubmit: %+v", again)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2", "w3"} {
		w, err := NewWorker(WorkerOptions{
			Coordinator: ts.URL,
			Name:        name,
			Workdir:     t.TempDir(),
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	// The progress stream ends when the study completes.
	resp, err := http.Get(ts.URL + "/studies/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last StatusEvent
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("progress line %d: %v", lines, err)
		}
		lines++
	}
	if lines == 0 || last.State != "complete" || last.Done != 12 {
		t.Fatalf("progress stream ended at %+v after %d lines", last, lines)
	}
	cancel()
	wg.Wait()

	got := getBytes(t, ts.URL+"/studies/"+sub.ID+"/result")
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed result differs from single-process run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCoordinatorKillAndResume closes the coordinator mid-study and
// reopens it on the same state directory: journaled completions
// survive, the in-flight lease's cells return to the pool, and the
// finished study still matches the single-process bytes.
func TestCoordinatorKillAndResume(t *testing.T) {
	wire := testWire()
	want := localBytes(t, wire)
	spec, err := func() (core.Spec, error) {
		w, err := wire.Normalize()
		if err != nil {
			return core.Spec{}, err
		}
		return w.Spec()
	}()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := Options{Dir: dir, LeaseTTL: time.Minute, Logf: t.Logf}

	coord, err := OpenCoordinator(opt)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := coord.Submit(wire)
	if err != nil {
		t.Fatal(err)
	}

	// Complete one lease, leave a second one in flight, then kill.
	g1, err := coord.Lease(LeaseRequest{Worker: "w1"})
	if err != nil || g1 == nil {
		t.Fatalf("lease: %v %v", g1, err)
	}
	out, err := spec.RunCells(context.Background(), g1.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Complete(CompleteRequest{Worker: "w1", LeaseID: g1.LeaseID, StudyID: sub.ID, Outcomes: out}); err != nil {
		t.Fatal(err)
	}
	if g2, err := coord.Lease(LeaseRequest{Worker: "w1"}); err != nil || g2 == nil {
		t.Fatalf("second lease: %v %v", g2, err)
	}
	done := len(g1.Cells)
	coord.Close()

	coord, err = OpenCoordinator(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ev, ok := coord.Status(sub.ID)
	if !ok || ev.Done != done || ev.Leased != 0 {
		t.Fatalf("resumed status: %+v (want Done=%d, Leased=0)", ev, done)
	}

	// Finish the study through the reopened coordinator.
	for {
		g, err := coord.Lease(LeaseRequest{Worker: "w2"})
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		out, err := spec.RunCells(context.Background(), g.Cells)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := coord.Complete(CompleteRequest{Worker: "w2", LeaseID: g.LeaseID, StudyID: sub.ID, Outcomes: out})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Duplicates != 0 {
			t.Fatalf("resumed run recomputed %d already-journaled cells", resp.Duplicates)
		}
	}
	got, ok := coord.Result(sub.ID)
	if !ok {
		t.Fatal("study not complete after resumed leases")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed coordinator result differs from single-process run")
	}
	if hb := coord.Heartbeat(HeartbeatRequest{Worker: "w2", LeaseID: sub.ID + "/l-999"}); !hb.Cancel {
		t.Fatalf("heartbeat after completion: %+v, want Cancel", hb)
	}
}

// TestPersistentFailureQuarantine drives a cell through the fail path
// to quarantine: the study still completes, with the cell recorded in
// Study.Failed instead of hanging the campaign forever.
func TestPersistentFailureQuarantine(t *testing.T) {
	wire := testWire()
	coord, err := OpenCoordinator(Options{
		Dir: t.TempDir(), LeaseTTL: time.Minute,
		MaxAttempts: 2, WorkerBudget: 100, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sub, err := coord.Submit(wire)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := coord.studies[sub.ID].wire.Spec()
	if err != nil {
		t.Fatal(err)
	}

	// Fail one cell twice (MaxAttempts), completing the rest.
	poison := spec.Cells()[5]
	for attempt := 0; ; attempt++ {
		g, err := coord.Lease(LeaseRequest{Worker: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		var good []core.CellRef
		bad := false
		for _, ref := range g.Cells {
			if ref == poison {
				bad = true
			} else {
				good = append(good, ref)
			}
		}
		if len(good) > 0 {
			out, err := spec.RunCells(context.Background(), good)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := coord.Complete(CompleteRequest{Worker: "w", LeaseID: g.LeaseID, StudyID: sub.ID, Outcomes: out}); err != nil {
				t.Fatal(err)
			}
		}
		if bad {
			err := coord.Fail(FailRequest{Worker: "w", LeaseID: g.LeaseID, StudyID: sub.ID,
				Cells: []core.CellRef{poison}, Err: "injected worker crash"})
			if err != nil {
				t.Fatal(err)
			}
		}
		if attempt > 10 {
			t.Fatal("study did not settle")
		}
	}
	data, ok := coord.Result(sub.ID)
	if !ok {
		t.Fatal("study with a quarantined cell never completed")
	}
	var st core.Study
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 1 {
		t.Fatalf("Failed has %d entries, want 1: %+v", len(st.Failed), st.Failed)
	}
	f := st.Failed[0]
	if f.Target != poison.Target || f.Stage != "dispatch" || !strings.Contains(f.Err, "injected worker crash") {
		t.Fatalf("quarantine record: %+v", f)
	}
	ev, _ := coord.Status(sub.ID)
	if ev.Quarantined != 1 || ev.State != "complete" {
		t.Fatalf("status: %+v", ev)
	}
}

// TestLeaseExpiryReassignsOverHTTP covers the dead-worker path with a
// synthetic clock: a worker leases cells and vanishes; the sweep
// expires the lease and a live worker finishes the study.
func TestLeaseExpiryReassigns(t *testing.T) {
	wire := testWire()
	want := localBytes(t, wire)
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	coord, err := OpenCoordinator(Options{
		Dir: t.TempDir(), LeaseTTL: 30 * time.Second,
		WorkerBudget: 100, Clock: clock, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sub, err := coord.Submit(wire)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := coord.studies[sub.ID].wire.Spec()

	// The doomed worker takes the first unit and dies silently.
	gDead, err := coord.Lease(LeaseRequest{Worker: "doomed"})
	if err != nil || gDead == nil || len(gDead.Cells) != 3 {
		t.Fatalf("doomed lease: %+v %v", gDead, err)
	}
	// Its lease has not expired yet: the live worker gets the rest.
	for units := 0; ; units++ {
		gLive, err := coord.Lease(LeaseRequest{Worker: "live"})
		if err != nil {
			t.Fatal(err)
		}
		if gLive == nil {
			if units != 3 {
				t.Fatalf("live worker was leased %d units, want the other 3", units)
			}
			break
		}
		out, err := spec.RunCells(context.Background(), gLive.Cells)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Complete(CompleteRequest{Worker: "live", LeaseID: gLive.LeaseID, StudyID: sub.ID, Outcomes: out}); err != nil {
			t.Fatal(err)
		}
	}

	// Heartbeats keep the doomed lease alive across the TTL...
	advance(20 * time.Second)
	if hb := coord.Heartbeat(HeartbeatRequest{Worker: "doomed", LeaseID: gDead.LeaseID}); !hb.Known {
		t.Fatalf("heartbeat: %+v", hb)
	}
	advance(20 * time.Second)
	coord.Sweep()
	if g, _ := coord.Lease(LeaseRequest{Worker: "live"}); g != nil {
		t.Fatalf("heartbeated lease reassigned early: %+v", g)
	}
	// ...until they stop: the sweep reclaims the cells.
	advance(31 * time.Second)
	coord.Sweep()
	g, err := coord.Lease(LeaseRequest{Worker: "live"})
	if err != nil || g == nil || len(g.Cells) != 3 {
		t.Fatalf("reassigned lease: %+v %v", g, err)
	}
	out, err := spec.RunCells(context.Background(), g.Cells)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := coord.Complete(CompleteRequest{Worker: "live", LeaseID: g.LeaseID, StudyID: sub.ID, Outcomes: out})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 {
		t.Fatalf("reassigned completion: %+v", resp)
	}

	// The zombie reports its (re-)computed cells after all: all dups.
	outDead, err := spec.RunCells(context.Background(), gDead.Cells)
	if err != nil {
		t.Fatal(err)
	}
	respDead, err := coord.Complete(CompleteRequest{Worker: "doomed", LeaseID: gDead.LeaseID, StudyID: sub.ID, Outcomes: outDead})
	if err != nil {
		t.Fatal(err)
	}
	if respDead.Accepted != 0 || respDead.Duplicates != 3 {
		t.Fatalf("zombie completion not fully deduplicated: %+v", respDead)
	}

	got, ok := coord.Result(sub.ID)
	if !ok {
		t.Fatal("study incomplete")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result with expiry/reassignment differs from single-process run")
	}
}

// TestLeaseIsOneUnit pins the lease shape: a grant is every pending
// cell of exactly one (march, bench, level) unit, so a clean T-target,
// U-unit study takes U leases; and once a cell of a unit has completed
// through an expired lease, the re-lease carries only the rest.
func TestLeaseIsOneUnit(t *testing.T) {
	wire := testWire() // T = 3 targets, U = 4 units
	var mu sync.Mutex
	now := time.Unix(0, 0)
	coord, err := OpenCoordinator(Options{
		Dir: t.TempDir(), LeaseTTL: 30 * time.Second, WorkerBudget: 100, Logf: t.Logf,
		Clock: func() time.Time { mu.Lock(); defer mu.Unlock(); return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sub, err := coord.Submit(wire)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := coord.studies[sub.ID].wire.Spec()
	cells := spec.Cells()
	unitOf := func(ref core.CellRef) core.CellRef { ref.Target = ""; return ref }

	// The first lease expires with one of its cells computed.
	late, err := coord.Lease(LeaseRequest{Worker: "late"})
	if err != nil || late == nil || len(late.Cells) != 3 {
		t.Fatalf("first lease: %+v %v", late, err)
	}
	mu.Lock()
	now = now.Add(31 * time.Second)
	mu.Unlock()
	coord.Sweep()
	one, err := spec.RunCells(context.Background(), late.Cells[1:2])
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := coord.Complete(CompleteRequest{Worker: "late", LeaseID: late.LeaseID, StudyID: sub.ID, Outcomes: one}); err != nil || resp.Accepted != 1 {
		t.Fatalf("completion through the expired lease: %+v %v", resp, err)
	}

	leases := 0
	for {
		g, err := coord.Lease(LeaseRequest{Worker: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		// One unit, all of its pending cells, in enumeration order.
		want := cells[leases*3 : leases*3+3]
		if leases == 0 {
			want = []core.CellRef{cells[0], cells[2]} // cells[1] is done
		}
		if len(g.Cells) != len(want) {
			t.Fatalf("lease %d carries %v, want %v", leases, g.Cells, want)
		}
		for i, ref := range g.Cells {
			if ref != want[i] || unitOf(ref) != unitOf(g.Cells[0]) {
				t.Fatalf("lease %d carries %v, want %v", leases, g.Cells, want)
			}
		}
		leases++
		out, err := spec.RunCells(context.Background(), g.Cells)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := coord.Complete(CompleteRequest{Worker: "w", LeaseID: g.LeaseID, StudyID: sub.ID, Outcomes: out}); err != nil || resp.Duplicates != 0 {
			t.Fatalf("lease %d: %+v %v", leases, resp, err)
		}
	}
	if leases != 4 {
		t.Fatalf("study took %d leases after the expired one, want one per unit (4)", leases)
	}
	got, ok := coord.Result(sub.ID)
	if !ok || !bytes.Equal(got, localBytes(t, wire)) {
		t.Fatal("unit-leased study incomplete or different from the single-process run")
	}
}

// TestCompleteSurvivesJournalFailure is the lost-outcome regression: a
// completion whose journal write or fsync fails must leave the cells
// exactly as they were, so the worker's retry of the same report lands
// them. (The slot used to be marked done before the append; the retry
// was then counted as a duplicate, the outcome was never merged, and
// the study hung with nothing left to lease.) The failure is injected
// on the first write of one report, on the one fsync of the next, and on
// the fsync of a report that names a cell twice.
func TestCompleteSurvivesJournalFailure(t *testing.T) {
	wire := testWire()
	dir := t.TempDir()
	coord, err := OpenCoordinator(Options{Dir: dir, LeaseTTL: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { coord.Close() }()
	sub, err := coord.Submit(wire)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := coord.studies[sub.ID].wire.Spec()

	// A journal on the null device takes every write and refuses the
	// fsync, which a closed one never reaches.
	unsyncable := func() *journal.Writer {
		jw, _, err := journal.Open(os.DevNull, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if jw.Sync() == nil {
			t.Skipf("fsync of %s succeeds on this platform", os.DevNull)
		}
		return jw
	}
	for lease := 0; ; lease++ {
		g, err := coord.Lease(LeaseRequest{Worker: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			if lease != 4 {
				t.Fatalf("study took %d leases, want 4: not every injected failure was tried", lease)
			}
			break
		}
		out, err := spec.RunCells(context.Background(), g.Cells)
		if err != nil {
			t.Fatal(err)
		}
		req := CompleteRequest{Worker: "w", LeaseID: g.LeaseID, StudyID: sub.ID, Outcomes: out}
		wantDup := 0
		if lease == 2 {
			req.Outcomes = append(append([]core.CellOutcome{}, out...), out[0])
			wantDup = 1
		}
		if lease < 3 {
			real := coord.jw
			broken := real
			if lease == 0 {
				real.Close() // refuses the write; reopening it is the disk coming back
			} else {
				broken = unsyncable()
			}
			coord.jw = broken
			before, _ := coord.Status(sub.ID)
			if _, err := coord.Complete(req); err == nil {
				t.Fatalf("lease %d: completion acknowledged although its journal write or fsync failed", lease)
			}
			if ev, _ := coord.Status(sub.ID); ev.Done != before.Done || ev.Leased != before.Leased {
				t.Fatalf("lease %d: unjournaled outcomes moved the study: %+v -> %+v", lease, before, ev)
			}
			if lease == 0 {
				if real, _, err = journal.Open(filepath.Join(dir, "coordinator"), journal.Options{}); err != nil {
					t.Fatal(err)
				}
			} else {
				broken.Close()
				// On a real disk the writes in front of the failed fsync
				// stay in the file, and the retry writes them again.
				for _, o := range out {
					if err := real.Write(kindOutcome, outcomeRecord{Study: sub.ID, Outcome: o}); err != nil {
						t.Fatal(err)
					}
				}
			}
			coord.jw = real
		}
		resp, err := coord.Complete(req) // the worker's retry
		if err != nil || resp.Accepted != len(out) || resp.Duplicates != wantDup {
			t.Fatalf("lease %d: retried completion: %+v %v", lease, resp, err)
		}
	}
	got, ok := coord.Result(sub.ID)
	if !ok {
		ev, _ := coord.Status(sub.ID)
		t.Fatalf("study hung after a failed append: %+v", ev)
	}
	if !bytes.Equal(got, localBytes(t, wire)) {
		t.Fatal("study completed after failed appends differs from the single-process run")
	}

	// What was acknowledged is what the journal holds — once each, however
	// often a failed attempt had written it.
	coord.Close()
	if coord, err = OpenCoordinator(Options{Dir: dir, Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}
	if again, ok := coord.Result(sub.ID); !ok || !bytes.Equal(again, got) {
		t.Fatal("reopened coordinator does not reproduce the completed study")
	}
}

// TestQuarantineSurvivesJournalFailure is the stranded-quarantine
// regression: a quarantine whose journal write or fsync fails must leave
// its cells unmerged and owed, so the worker's retried failure report
// (the Fail path) or the next sweep (the expiry path) lands it. (The
// lease table used to mark the cells quarantined before the append; the
// retry then found nothing to do, the Assembler never heard of them, and
// the study never completed.) Each path is tried with a closed journal,
// which refuses the write, and with one on the null device, which
// refuses the fsync.
func TestQuarantineSurvivesJournalFailure(t *testing.T) {
	wire := testWire()
	dir := t.TempDir()
	var mu sync.Mutex
	now := time.Unix(0, 0)
	coord, err := OpenCoordinator(Options{
		Dir: dir, LeaseTTL: 30 * time.Second, MaxAttempts: 1, WorkerBudget: 100, Logf: t.Logf,
		Clock: func() time.Time { mu.Lock(); defer mu.Unlock(); return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { coord.Close() }()
	sub, err := coord.Submit(wire)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := coord.studies[sub.ID].wire.Spec()
	cells := spec.Cells()

	unsyncable := func() *journal.Writer {
		jw, _, err := journal.Open(os.DevNull, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if jw.Sync() == nil {
			t.Skipf("fsync of %s succeeds on this platform", os.DevNull)
		}
		return jw
	}
	for u, path := range []string{"fail", "fail", "sweep", "sweep"} {
		g, err := coord.Lease(LeaseRequest{Worker: "w"})
		if err != nil || g == nil || len(g.Cells) != 3 || g.Cells[0] != cells[3*u] {
			t.Fatalf("lease %d: %+v %v", u, g, err)
		}
		report := func() error {
			if path == "fail" {
				return coord.Fail(FailRequest{Worker: "w", LeaseID: g.LeaseID, StudyID: sub.ID, Cells: g.Cells, Err: "injected worker crash"})
			}
			coord.Sweep()
			return nil
		}
		if path == "sweep" {
			mu.Lock()
			now = now.Add(31 * time.Second)
			mu.Unlock()
		}
		real := coord.jw
		broken := real
		if u%2 == 0 {
			real.Close() // refuses the write; reopening it is the disk coming back
		} else {
			broken = unsyncable()
		}
		coord.jw = broken
		before, _ := coord.Status(sub.ID)
		if err := report(); path == "fail" && err == nil {
			t.Fatalf("lease %d: failure report acknowledged although its quarantine was not journaled", u)
		}
		if ev, _ := coord.Status(sub.ID); ev.Done != before.Done || ev.Quarantined != before.Quarantined {
			t.Fatalf("lease %d (%s): an unjournaled quarantine moved the study: %+v -> %+v", u, path, before, ev)
		}
		if u%2 == 0 {
			if real, _, err = journal.Open(filepath.Join(dir, "coordinator"), journal.Options{}); err != nil {
				t.Fatal(err)
			}
		} else {
			broken.Close()
		}
		coord.jw = real
		if err := report(); err != nil {
			t.Fatalf("lease %d: retried failure report: %v", u, err)
		}
		if ev, _ := coord.Status(sub.ID); ev.Done != before.Done+3 || ev.Quarantined != before.Quarantined+3 {
			t.Fatalf("lease %d (%s): retry did not land the quarantine: %+v -> %+v", u, path, before, ev)
		}
	}
	got, ok := coord.Result(sub.ID)
	if !ok {
		ev, _ := coord.Status(sub.ID)
		t.Fatalf("study hung after a failed quarantine write: %+v", ev)
	}
	var st core.Study
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != len(cells) {
		t.Fatalf("Failed has %d entries, want every one of the %d cells", len(st.Failed), len(cells))
	}
	for i, f := range st.Failed {
		if f.Target != cells[i].Target || f.Stage != "dispatch" {
			t.Fatalf("quarantine record %d: %+v", i, f)
		}
	}

	coord.Close()
	if coord, err = OpenCoordinator(Options{Dir: dir, Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}
	if again, ok := coord.Result(sub.ID); !ok || !bytes.Equal(again, got) {
		t.Fatal("reopened coordinator does not reproduce the quarantined study")
	}
}

func postJSON(t *testing.T, url string, req, resp any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s", url, r.Status)
	}
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		t.Fatal(err)
	}
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, r.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDistributedSharedWarmCache runs two studies back to back through
// three workers sharing one prep-artifact cache directory: the first
// (cold) study fills the cache, the second — same prep configurations,
// different sampling seed — must be served entirely warm. Both merge to
// bytes identical to single-process runs, and the coordinator's status
// reports the per-worker cache counters the workers attach to their
// completions.
func TestDistributedSharedWarmCache(t *testing.T) {
	wireA := testWire()
	wireB := testWire()
	wireB.Seed = wireA.Seed + 1 // different sampling, identical prep units
	wantA := localBytes(t, wireA)
	wantB := localBytes(t, wireB)

	coord, err := OpenCoordinator(Options{
		Dir:      t.TempDir(),
		LeaseTTL: time.Minute,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(NewServer(coord, "unused").Handler)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	cacheDir := t.TempDir()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2", "w3"} {
		w, err := NewWorker(WorkerOptions{
			Coordinator: ts.URL,
			Name:        name,
			Workdir:     t.TempDir(),
			CacheDir:    cacheDir, // one cache shared by all three
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	waitStudy := func(wire StudySpec, want []byte) StatusEvent {
		t.Helper()
		var sub SubmitResponse
		start := time.Now()
		postJSON(t, ts.URL+"/studies", wire, &sub)
		deadline := start.Add(3 * time.Minute)
		for time.Now().Before(deadline) {
			if got, ok := coord.Result(sub.ID); ok {
				if !bytes.Equal(got, want) {
					t.Fatalf("cached distributed result differs from single-process run (%d vs %d bytes)", len(got), len(want))
				}
				ev, _ := coord.Status(sub.ID)
				t.Logf("study %s: %v submit-to-result, cache %s", sub.ID, time.Since(start).Round(time.Millisecond), ev.Cache)
				return ev
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("study %s never completed", sub.ID)
		return StatusEvent{}
	}

	evA := waitStudy(wireA, wantA)
	if evA.Cache.Misses == 0 || evA.Cache.Puts == 0 {
		t.Fatalf("cold study reported no cache fills: %+v", evA.Cache)
	}
	if len(evA.CacheByWorker) == 0 {
		t.Fatalf("cold study reported no per-worker cache stats: %+v", evA)
	}

	evB := waitStudy(wireB, wantB)
	if evB.Cache.Misses != 0 || evB.Cache.Hits == 0 {
		t.Fatalf("second study was not served warm: %+v", evB.Cache)
	}
	cancel()
	wg.Wait()
}
