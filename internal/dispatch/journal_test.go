package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sevsim/internal/journal"
	"sevsim/internal/workloads"
)

// paperWire is the paper's study shape at test size: both machines, all
// eight benchmarks, four levels, all fifteen targets, one fault per cell
// — 64 units, 960 cells, the shape sevbench's dist_warm runs.
func paperWire(t *testing.T) StudySpec {
	t.Helper()
	wire := StudySpec{
		Machines: []string{"Cortex-A15-like", "Cortex-A72-like"},
		Levels:   []string{"O0", "O1", "O2", "O3"},
		Faults:   1,
		Seed:     7,
	}
	for _, b := range workloads.All() {
		wire.Benches = append(wire.Benches, b.Name)
		wire.Sizes = append(wire.Sizes, b.TestSize)
	}
	wire, err := wire.Normalize() // fills in the fifteen targets
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// journalFiles lists what a worker's workdir holds under the names
// journals take.
func journalFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.journal*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDistributedFsyncsCounted runs the paper-shaped study through a
// coordinator and two workers and counts, not times, what durability
// cost: the coordinator one fsync per Submit and one per Complete that
// accepted anything (65 for 64 unit leases; one per cell would be 961),
// each worker at most three per lease (meta, unit, close). When the
// study is done no worker has a journal left, and the per-study journal
// an older tree kept in the workdir was neither read nor touched.
func TestDistributedFsyncsCounted(t *testing.T) {
	wire := paperWire(t)
	want := localBytes(t, wire)
	coord, err := OpenCoordinator(Options{Dir: t.TempDir(), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(NewServer(coord, "unused").Handler)
	defer ts.Close()
	sub, err := coord.Submit(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := coord.JournalStats(); got.Records != 1 || got.Syncs != 1 {
		t.Fatalf("after Submit: %s; want 1 record, 1 fsync", got)
	}

	const units, cells = 64, 960
	var mu sync.Mutex
	var leaseJournals []journal.Stats
	acked := make(chan struct{}, units) // one send per acknowledged lease
	logf := func(format string, args ...any) {
		switch {
		case strings.HasPrefix(format, "  journal "):
			mu.Lock()
			leaseJournals = append(leaseJournals, args[1].(journal.Stats))
			mu.Unlock()
		case strings.HasSuffix(format, "accepted, %d duplicate"):
			acked <- struct{}{}
		}
	}
	workdirs := []string{t.TempDir(), t.TempDir()}
	old := filepath.Join(workdirs[0], sub.ID+".journal")
	oldBytes := []byte(`{"k":"cell","sum":"00000000","v":{"from":"an older tree"}}` + "\n")
	if err := os.WriteFile(old, oldBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i, dir := range workdirs {
		w, err := NewWorker(WorkerOptions{Coordinator: ts.URL, Name: fmt.Sprintf("w%d", i), Workdir: dir, Parallelism: 1, Logf: logf})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	// A worker logs the acknowledgement once the lease's journal is gone.
	for i := 0; i < units; i++ {
		select {
		case <-acked:
		case <-ctx.Done():
			t.Fatalf("%d of %d leases acknowledged: %v", i, units, ctx.Err())
		}
	}
	cancel()
	wg.Wait()

	got, ok := coord.Result(sub.ID)
	if !ok || !bytes.Equal(got, want) {
		t.Fatal("distributed paper-shaped study incomplete or different from the single-process run")
	}
	stats := coord.JournalStats()
	if stats.Records != 1+cells || stats.Syncs != 1+units {
		t.Fatalf("coordinator journal: %s; want %d records and %d fsyncs (Submit + one per report)", stats, 1+cells, 1+units)
	}
	if len(leaseJournals) != units {
		t.Fatalf("%d lease journals were closed, want one per unit (%d)", len(leaseJournals), units)
	}
	for _, s := range leaseJournals {
		if s.Records != 1+cells/units || s.Syncs > 3 {
			t.Fatalf("lease journal: %s; want %d records and at most 3 fsyncs", s, 1+cells/units)
		}
	}

	// A report that lands nothing costs no fsync.
	spec, _ := wire.Spec()
	out, err := spec.RunCells(context.Background(), spec.Cells()[:15])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := coord.Complete(CompleteRequest{Worker: "late", StudyID: sub.ID, Outcomes: out})
	if err != nil || resp.Accepted != 0 || resp.Duplicates != 15 {
		t.Fatalf("late report: %+v %v", resp, err)
	}
	if again := coord.JournalStats(); again != stats {
		t.Fatalf("a report of duplicates moved the journal: %s -> %s", stats, again)
	}

	if left := journalFiles(t, workdirs[1]); len(left) != 0 {
		t.Fatalf("worker w1 left journals behind: %v", left)
	}
	if left := journalFiles(t, workdirs[0]); len(left) != 1 || left[0] != old {
		t.Fatalf("worker w0's workdir holds %v, want only the older tree's %s", left, old)
	}
	if data, err := os.ReadFile(old); err != nil || !bytes.Equal(data, oldBytes) {
		t.Fatalf("the older tree's journal was touched: %q %v", data, err)
	}
}

// TestWorkerRestartReplaysItsLeaseOnly kills a worker mid-lease (its
// context is cancelled with five cells finished; nothing is reported)
// and restarts it on the same workdir. Granted another unit it replays
// nothing; granted the interrupted unit again — a new lease, the same
// cells — it replays exactly the cells that unit's journal holds, and
// the journal is gone once the report is acknowledged.
func TestWorkerRestartReplaysItsLeaseOnly(t *testing.T) {
	wire, err := StudySpec{
		Machines: []string{"Cortex-A15-like"},
		Benches:  []string{"qsort"},
		Sizes:    []int{24},
		Levels:   []string{"O0", "O2"},
		Faults:   4,
		Seed:     7,
	}.Normalize() // fills in the fifteen targets
	if err != nil {
		t.Fatal(err)
	}
	want := localBytes(t, wire)
	var clockMu sync.Mutex
	now := time.Unix(0, 0)
	coord, err := OpenCoordinator(Options{
		Dir: t.TempDir(), LeaseTTL: 30 * time.Second, WorkerBudget: 100,
		Clock: func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(NewServer(coord, "unused").Handler)
	defer ts.Close()
	sub, err := coord.Submit(wire)
	if err != nil {
		t.Fatal(err)
	}

	workdir := t.TempDir()
	// worker returns a worker on the shared workdir whose log is kept;
	// onCell runs after each finished cell.
	type logged struct {
		mu      sync.Mutex
		resumes []int // n of each "resume: n/15" line
	}
	worker := func(onCell func()) (*Worker, *logged) {
		l := &logged{}
		w, err := NewWorker(WorkerOptions{
			Coordinator: ts.URL, Name: "w", Workdir: workdir, Parallelism: 1,
			Logf: func(format string, args ...any) {
				l.mu.Lock()
				defer l.mu.Unlock()
				switch {
				case strings.HasPrefix(format, "  resume: %d/%d"):
					if args[1].(int) != 15 {
						t.Errorf("resume line counts against %d cells, want the lease's 15", args[1])
					}
					l.resumes = append(l.resumes, args[0].(int))
				case strings.Contains(format, "AVF") && onCell != nil:
					onCell()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w, l
	}

	// The first life: killed with five cells of unit 0 finished.
	first, err := coord.Lease(LeaseRequest{Worker: "w"})
	if err != nil || first == nil || len(first.Cells) != 15 {
		t.Fatalf("first lease: %+v %v", first, err)
	}
	ctx, kill := context.WithCancel(context.Background())
	finished := 0
	w, _ := worker(func() {
		if finished++; finished == 5 {
			kill()
		}
	})
	w.execute(ctx, first)
	kill()
	left := journalFiles(t, workdir)
	if len(left) != 1 {
		t.Fatalf("killed worker left %v, want the interrupted lease's journal", left)
	}
	recs, err := journal.Scan(left[0])
	if err != nil {
		t.Fatal(err)
	}
	held := len(recs) - 1 // outcomes after the meta record
	if held < 5 || held >= 15 {
		t.Fatalf("interrupted lease's journal holds %d outcomes, want at least the 5 finished and not all 15", held)
	}

	// The second life, on the same workdir: unit 1 first (unit 0 is
	// still leased to the dead worker), then unit 0 once it expires.
	w, log := worker(nil)
	other, err := coord.Lease(LeaseRequest{Worker: "w"})
	if err != nil || other == nil || other.Cells[0] == first.Cells[0] {
		t.Fatalf("second lease: %+v %v", other, err)
	}
	w.execute(context.Background(), other)
	if len(log.resumes) != 0 {
		t.Fatalf("another unit's lease replayed %v cells", log.resumes)
	}
	clockMu.Lock()
	now = now.Add(31 * time.Second)
	clockMu.Unlock()
	coord.Sweep()
	again, err := coord.Lease(LeaseRequest{Worker: "w"})
	if err != nil || again == nil || again.LeaseID == first.LeaseID || len(again.Cells) != 15 || again.Cells[0] != first.Cells[0] {
		t.Fatalf("re-granted lease: %+v %v", again, err)
	}
	w.execute(context.Background(), again)
	if len(log.resumes) != 1 || log.resumes[0] != held {
		t.Fatalf("re-granted unit replayed %v cells, want the %d its journal held", log.resumes, held)
	}

	got, ok := coord.Result(sub.ID)
	if !ok || !bytes.Equal(got, want) {
		t.Fatal("study finished by a restarted worker incomplete or different from the single-process run")
	}
	if left := journalFiles(t, workdir); len(left) != 0 {
		t.Fatalf("journals left after the study finished: %v", left)
	}
}

// TestQuarantineFsyncsCounted: quarantining a lease's cells costs one
// coordinator fsync however many cells the lease held, on the Fail
// path and on the expiry path alike.
func TestQuarantineFsyncsCounted(t *testing.T) {
	now := time.Unix(0, 0)
	coord, err := OpenCoordinator(Options{
		Dir: t.TempDir(), LeaseTTL: 30 * time.Second, MaxAttempts: 1, WorkerBudget: 100,
		Clock: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sub, err := coord.Submit(testWire())
	if err != nil {
		t.Fatal(err)
	}
	g, err := coord.Lease(LeaseRequest{Worker: "w"})
	if err != nil || g == nil || len(g.Cells) != 3 {
		t.Fatalf("lease: %+v %v", g, err)
	}
	if err := coord.Fail(FailRequest{Worker: "w", LeaseID: g.LeaseID, StudyID: sub.ID, Cells: g.Cells, Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	if got := coord.JournalStats(); got.Records != 1+3 || got.Syncs != 1+1 {
		t.Fatalf("after a failed lease of 3 cells: %s; want 4 records, 2 fsyncs (Submit + one for the report)", got)
	}
	if g, err = coord.Lease(LeaseRequest{Worker: "w"}); err != nil || g == nil || len(g.Cells) != 3 {
		t.Fatalf("second lease: %+v %v", g, err)
	}
	now = now.Add(31 * time.Second)
	coord.Sweep()
	if got := coord.JournalStats(); got.Records != 1+6 || got.Syncs != 1+2 {
		t.Fatalf("after an expired lease of 3 cells: %s; want 7 records, 3 fsyncs (one more for the sweep)", got)
	}
}

// TestOldQuarantineRecordRejected: a coordinator journal from before a
// quarantine was an outcome holds quarantine records; it is refused with
// the way out, not read by a second decoder.
func TestOldQuarantineRecordRejected(t *testing.T) {
	dir := t.TempDir()
	wire, err := testWire().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	jw, _, err := journal.Open(filepath.Join(dir, "coordinator"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cell := map[string]string{"March": "Cortex-A15-like", "Bench": "qsort", "Level": "O0", "Target": "RF"}
	for _, rec := range []struct {
		kind string
		v    any
	}{
		{kindSubmit, submitRecord{ID: wire.ID(), Spec: wire}},
		{"quarantine", map[string]any{"Study": wire.ID(), "Cell": cell, "Failure": map[string]string{"Stage": "dispatch", "Err": "lease expired"}}},
	} {
		if err := jw.Append(rec.kind, rec.v); err != nil {
			t.Fatal(err)
		}
	}
	jw.Close()
	coord, err := OpenCoordinator(Options{Dir: dir})
	if err == nil {
		coord.Close()
		t.Fatal("coordinator journal with a quarantine record opened")
	}
	if !strings.Contains(err.Error(), "remove the state directory") || !strings.Contains(err.Error(), `"quarantine"`) {
		t.Fatalf("old quarantine record not refused with the removal hint: %v", err)
	}
}
