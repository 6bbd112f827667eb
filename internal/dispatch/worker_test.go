package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sevsim/internal/core"
)

// TestLostAckIsResent is the failure matrix's "network partition / lost
// ack" row: the first report reaches the coordinator and commits, and
// then its connection is closed before the reply. The worker sends the
// report again, the coordinator counts its cells as duplicates, the
// journal holds each outcome once, and the merged study equals the
// single-process bytes.
func TestLostAckIsResent(t *testing.T) {
	wire := testWire()
	want := localBytes(t, wire)
	coord, err := OpenCoordinator(Options{Dir: t.TempDir(), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	api := NewServer(coord, "unused").Handler
	var completes atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/complete" || completes.Add(1) != 1 {
			api.ServeHTTP(rw, r)
			return
		}
		api.ServeHTTP(httptest.NewRecorder(), r) // commits; the reply is lost
		conn, _, err := http.NewResponseController(rw).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer ts.Close()
	sub, err := coord.Submit(wire)
	if err != nil {
		t.Fatal(err)
	}

	const units, cells = 4, 12
	acks := make(chan [2]int, units) // (accepted, duplicates) per acknowledged lease
	logf := func(format string, args ...any) {
		if strings.HasSuffix(format, "accepted, %d duplicate") {
			acks <- [2]int{args[1].(int), args[2].(int)}
		}
	}
	w, err := NewWorker(WorkerOptions{Coordinator: ts.URL, Name: "w1", Workdir: t.TempDir(), Parallelism: 1, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	for i := 0; i < units; i++ {
		var ack [2]int
		select {
		case ack = <-acks:
		case <-ctx.Done():
			t.Fatalf("%d of %d leases acknowledged: %v", i, units, ctx.Err())
		}
		// One worker reports its leases in turn, so the first answer is
		// the one to the re-sent report: every cell already committed.
		wantAck := [2]int{cells / units, 0}
		if i == 0 {
			wantAck = [2]int{0, cells / units}
		}
		if ack != wantAck {
			t.Fatalf("lease %d answered (accepted, duplicate) %v, want %v", i, ack, wantAck)
		}
	}
	cancel()
	<-done

	if n := completes.Load(); n != units+1 {
		t.Fatalf("%d reports arrived, want %d (one per lease and one re-send)", n, units+1)
	}
	if stats := coord.JournalStats(); stats.Records != 1+cells {
		t.Fatalf("coordinator journal: %s; want %d records (Submit + each outcome once)", stats, 1+cells)
	}
	if got, ok := coord.Result(sub.ID); !ok || !bytes.Equal(got, want) {
		t.Fatal("study incomplete or different from the single-process run")
	}
}

// TestRequestClassification replaces the coordinator's first reply on a
// path and counts the requests that arrive. A report retries a 5xx and a
// reply that does not decode, and gives up at once on a 4xx; a lease
// poll is sent once whatever comes back, because the run loop's idle
// schedule paces the polls.
func TestRequestClassification(t *testing.T) {
	coord, err := OpenCoordinator(Options{Dir: t.TempDir(), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	api := NewServer(coord, "unused").Handler
	for _, tc := range []struct {
		name     string
		lease    bool
		status   int    // the first reply's status
		body     string // and body
		requests int
		ok       bool
	}{
		{name: "report/503", status: http.StatusServiceUnavailable, body: "restarting", requests: 2, ok: true},
		{name: "report/undecodable", status: http.StatusOK, body: "{not json", requests: 2, ok: true},
		{name: "report/400", status: http.StatusBadRequest, body: "bad request body", requests: 1},
		{name: "lease/503", lease: true, status: http.StatusServiceUnavailable, body: "restarting", requests: 1},
		{name: "lease/204", lease: true, status: http.StatusNoContent, requests: 1, ok: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var requests atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if requests.Add(1) == 1 {
					rw.WriteHeader(tc.status)
					rw.Write([]byte(tc.body))
					return
				}
				api.ServeHTTP(rw, r)
			}))
			defer ts.Close()
			w, err := NewWorker(WorkerOptions{Coordinator: ts.URL, Name: "w1", Workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if tc.lease {
				var grant *LeaseGrant
				grant, err = w.lease(context.Background())
				if grant != nil {
					t.Fatalf("granted %+v with no study submitted", grant)
				}
			} else {
				var resp HeartbeatResponse
				err = w.call(context.Background(), "/v1/heartbeat", HeartbeatRequest{Worker: "w1", LeaseID: "none"}, &resp)
				if err == nil && resp.Known {
					t.Fatalf("heartbeat of an unknown lease answered %+v", resp)
				}
			}
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want success %v", err, tc.ok)
			}
			if n := requests.Load(); int(n) != tc.requests {
				t.Fatalf("%d requests arrived, want %d", n, tc.requests)
			}
		})
	}
}

// TestPermanentReportsSentOnce: the coordinator answers a report that
// can never land with a 4xx, so the worker sends it once instead of
// retrying it as transient — a report naming an unknown study (404) and
// one naming a cell outside the spec (400) alike.
func TestPermanentReportsSentOnce(t *testing.T) {
	coord, err := OpenCoordinator(Options{Dir: t.TempDir(), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sub, err := coord.Submit(testWire())
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(coord, "unused").Handler
	outside := core.CellOutcome{Cell: core.CellRef{March: "Cortex-A15-like", Bench: "sha", Level: "O0", Target: "RF"}}
	for _, tc := range []struct {
		name   string
		study  string
		status int
	}{
		{name: "unknown-study", study: "st-0000000000000000", status: http.StatusNotFound},
		{name: "cell-outside-spec", study: sub.ID, status: http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var requests atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				api.ServeHTTP(rw, r)
			}))
			defer ts.Close()
			w, err := NewWorker(WorkerOptions{Coordinator: ts.URL, Name: "w1", Workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			req := CompleteRequest{Worker: "w1", LeaseID: tc.study + "/l-1", StudyID: tc.study, Outcomes: []core.CellOutcome{outside}}
			err = w.call(context.Background(), "/v1/complete", req, &CompleteResponse{})
			if status := fmt.Sprintf(": %d %s: ", tc.status, http.StatusText(tc.status)); err == nil || !strings.Contains(err.Error(), status) {
				t.Fatalf("report answered %v, want%s", err, status)
			}
			if n := requests.Load(); n != 1 {
				t.Fatalf("%d requests arrived, want 1", n)
			}
		})
	}
	if ev, _ := coord.Status(sub.ID); ev.Done != 0 {
		t.Fatalf("a rejected report moved the study: %+v", ev)
	}
}

// newScheduleWorker returns a worker named name whose coordinator is
// never contacted; the schedule tests only draw its delays.
func newScheduleWorker(t *testing.T, name string) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerOptions{Coordinator: "http://127.0.0.1:1", Name: name, Workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// w1Delays are the delays a worker named w1 draws for retries 1 to 10;
// they predate the schedule's move into the worker and must not change.
var w1Delays = []time.Duration{104585302, 268509524, 438466915, 959125558, 2018857624,
	3661753332, 9888713559, 24013312793, 20676946316, 18194636332}

// TestDelayGrowsExponentiallyAndCaps pins the un-jittered half of the
// worker's one schedule: retry n waits at least d/2 with
// d = min(100 ms·2ⁿ, 30 s).
func TestDelayGrowsExponentiallyAndCaps(t *testing.T) {
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		3200 * time.Millisecond,
		6400 * time.Millisecond,
		12800 * time.Millisecond,
		15 * time.Second, // capped
		15 * time.Second,
	}
	for i, w := range want {
		if got := retryDelay(i+1, 0); got != w {
			t.Errorf("retry %d at u=0: %v, want %v", i+1, got, w)
		}
	}
}

// TestDelayJitterStaysInBand checks that the jitter sample moves retry
// n's wait inside [d/2, d) and nowhere else.
func TestDelayJitterStaysInBand(t *testing.T) {
	const almostOne = 1 - 1e-9
	for n := 1; n <= 10; n++ {
		d := min(100*time.Millisecond<<n, 30*time.Second)
		lo, hi := retryDelay(n, 0), retryDelay(n, almostOne)
		if lo != d/2 {
			t.Errorf("retry %d at u=0: %v, want %v", n, lo, d/2)
		}
		if hi < d/2 || hi >= d {
			t.Errorf("retry %d at u→1: %v, outside [%v, %v)", n, hi, d/2, d)
		}
		if lo == hi {
			t.Errorf("retry %d: jitter has no effect: %v", n, lo)
		}
	}
	w := newScheduleWorker(t, "band")
	for i := 0; i < 200; i++ {
		n := i%10 + 1
		d := min(100*time.Millisecond<<n, 30*time.Second)
		if got := w.delay(n); got < d/2 || got >= d {
			t.Fatalf("draw %d, retry %d: %v outside [%v, %v)", i, n, got, d/2, d)
		}
	}
}

// TestDelayIsDeterministicPerSeed checks that the jitter samples are a
// function of the worker's name alone: two workers named w1 draw the
// pinned delays, and a worker named w2 draws others.
func TestDelayIsDeterministicPerSeed(t *testing.T) {
	a, b, other := newScheduleWorker(t, "w1"), newScheduleWorker(t, "w1"), newScheduleWorker(t, "w2")
	differs := false
	for n := 1; n <= len(w1Delays); n++ {
		da, db := a.delay(n), b.delay(n)
		if da != w1Delays[n-1] || db != w1Delays[n-1] {
			t.Errorf("retry %d: workers named w1 drew %v and %v, want %v", n, da, db, w1Delays[n-1])
		}
		differs = differs || other.delay(n) != da
	}
	if !differs {
		t.Error("workers named w1 and w2 drew the same delays")
	}
}

// TestWaitHonorsCancellation checks that a cancelled context ends the
// worker's wait at once, even before its longest retry.
func TestWaitHonorsCancellation(t *testing.T) {
	w := newScheduleWorker(t, "w1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := w.wait(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait on a cancelled context: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("wait on a cancelled context took %v", elapsed)
	}
}

// TestSleepUsesSource checks that the worker's wait elapses after the
// delay drawn from its own name-seeded source, and consumes exactly one
// sample of it.
func TestSleepUsesSource(t *testing.T) {
	w := newScheduleWorker(t, "w1")
	start := time.Now()
	if err := w.wait(context.Background(), 1); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if elapsed := time.Since(start); elapsed < w1Delays[0] {
		t.Fatalf("wait for retry 1 took %v, want at least %v", elapsed, w1Delays[0])
	}
	if got := w.delay(2); got != w1Delays[1] {
		t.Fatalf("draw after one wait: %v, want %v (the second sample)", got, w1Delays[1])
	}
}
