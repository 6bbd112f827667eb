package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"sevsim/internal/artcache"
	"sevsim/internal/journal"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string

	// Name identifies the worker to the coordinator. It keys the
	// per-worker error budget and names this worker in progress
	// events. Required.
	Name string

	// Workdir holds one journal per lease in flight, removed once the
	// coordinator has acknowledged the lease's report. A worker killed
	// mid-lease, restarted on the same workdir and granted the same
	// cells again replays the finished ones. Required.
	Workdir string

	// Parallelism sizes the pool that runs a lease's whole unit: its
	// compile, golden run and injections (core.Spec semantics; <= 0:
	// GOMAXPROCS).
	Parallelism int

	// CacheDir, when set, opens a prep-artifact cache shared across
	// every lease and study this worker executes: a re-leased or
	// resubmitted cell loads its compiled binary, golden result, and
	// checkpoint stream instead of recomputing them. Results are
	// byte-identical either way.
	CacheDir string

	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// Worker is the lease-execution loop: poll the coordinator for a
// lease, compute its cells with the journaled local engine, report the
// outcomes, repeat. All failure handling is bounded-retry on one fixed
// schedule (retryDelay) — a worker survives coordinator restarts and
// reports results for leases the coordinator no longer remembers.
type Worker struct {
	opt   WorkerOptions
	cache *artcache.Cache // nil: uncached; shared across leases and studies

	mu     sync.Mutex // guards jitter: the heartbeat goroutine retries too
	jitter *rand.Rand // seeded with FNV-64a of the worker's name
}

// httpClient sends every request of every worker.
var httpClient = &http.Client{Timeout: 30 * time.Second}

// The retry schedule: retry n (n >= 1) of a report, and the n-th idle
// lease poll in a row, waits about retryBase·2ⁿ, capped at retryMax.
const (
	retryBase = 100 * time.Millisecond
	retryMax  = 30 * time.Second
	// callAttempts bounds a report's retries. It is deliberately
	// generous: the compute behind a report is expensive, the report
	// is idempotent, and a coordinator mid-restart comes back within a
	// few delays.
	callAttempts = 8
)

// NewWorker validates the options and returns a ready worker.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.Coordinator == "" || opt.Name == "" || opt.Workdir == "" {
		return nil, fmt.Errorf("dispatch: worker needs a coordinator URL, a name, and a workdir")
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	var cache *artcache.Cache
	if opt.CacheDir != "" {
		var err error
		cache, err = artcache.Open(opt.CacheDir, artcache.Options{})
		if err != nil {
			return nil, fmt.Errorf("dispatch: worker cache: %w", err)
		}
	}
	h := fnv.New64a()
	io.WriteString(h, opt.Name)
	return &Worker{
		opt:    opt,
		cache:  cache,
		jitter: rand.New(rand.NewSource(int64(h.Sum64()))),
	}, nil
}

// Run executes leases until the context is cancelled. It returns nil
// on cancellation — a worker being told to stop is not an error.
func (w *Worker) Run(ctx context.Context) error {
	idle := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		grant, err := w.lease(ctx)
		if err != nil || grant == nil {
			if err != nil {
				w.opt.Logf("lease poll: %v", err)
			}
			idle++
			if err := w.wait(ctx, idle); err != nil {
				return nil
			}
			continue
		}
		idle = 0
		w.execute(ctx, grant)
	}
}

// execute runs one lease end to end: heartbeats in the background,
// cells through the journaled local engine, outcomes (or the failure)
// reported with bounded retries.
func (w *Worker) execute(ctx context.Context, g *LeaseGrant) {
	w.opt.Logf("lease %s: %d cells of %s", g.LeaseID, len(g.Cells), g.StudyID)
	spec, err := g.Spec.Spec()
	if err != nil {
		w.fail(ctx, g, fmt.Errorf("resolve spec: %w", err))
		return
	}
	// A poisoned cell comes back as a deterministic quarantine outcome,
	// as in a local run; the lease's own journal makes a
	// killed-and-restarted worker replay its finished cells.
	spec.Parallelism = w.opt.Parallelism
	spec.Journal = w.leaseJournal(g)
	spec.Progress = func(format string, args ...any) {
		w.opt.Logf("  "+format, args...)
	}
	spec.Cache = w.cache

	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(leaseCtx, g, cancel)
	}()

	outcomes, err := spec.RunCells(leaseCtx, g.Cells)
	cancel()
	<-hbDone
	if err != nil {
		if ctx.Err() != nil {
			return // shutting down; the lease will expire and reassign
		}
		w.fail(ctx, g, err)
		return
	}
	var resp CompleteResponse
	err = w.call(ctx, "/v1/complete", CompleteRequest{
		Worker: w.opt.Name, LeaseID: g.LeaseID, StudyID: g.StudyID, Outcomes: outcomes,
	}, &resp)
	if err != nil { // the journal stays: a re-grant of these cells replays it
		w.opt.Logf("lease %s: report failed: %v", g.LeaseID, err)
		return
	}
	w.removeJournal(g)
	w.opt.Logf("lease %s: %d accepted, %d duplicate", g.LeaseID, resp.Accepted, resp.Duplicates)
}

// leaseJournal names the lease's journal after the study and the
// lease's cell set, not its ID: a restarted worker granted the same
// cells under a new lease finds what it had finished.
func (w *Worker) leaseJournal(g *LeaseGrant) string {
	h := fnv.New64a()
	for _, ref := range g.Cells {
		io.WriteString(h, ref.Key()+"\n")
	}
	return filepath.Join(w.opt.Workdir, fmt.Sprintf("%s.%016x.journal", g.StudyID, h.Sum64()))
}

// removeJournal deletes the journal of a lease that is over: its report
// was acknowledged, or it failed.
func (w *Worker) removeJournal(g *LeaseGrant) {
	if err := journal.Remove(w.leaseJournal(g)); err != nil {
		w.opt.Logf("lease %s: remove journal: %v", g.LeaseID, err)
	}
}

// heartbeatLoop extends the lease at TTL/3 until the lease context
// ends or the coordinator cancels the lease. Transport errors and
// "unknown lease" responses do not stop the work: completions are
// merged by cell key, so finishing is always worth it — only an
// explicit Cancel (study already complete) aborts the compute.
func (w *Worker) heartbeatLoop(ctx context.Context, g *LeaseGrant, cancel context.CancelFunc) {
	interval := g.TTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		var resp HeartbeatResponse
		err := w.call(ctx, "/v1/heartbeat", HeartbeatRequest{Worker: w.opt.Name, LeaseID: g.LeaseID}, &resp)
		switch {
		case err != nil:
			w.opt.Logf("lease %s: heartbeat: %v", g.LeaseID, err)
		case resp.Cancel:
			w.opt.Logf("lease %s: cancelled by coordinator", g.LeaseID)
			cancel()
			return
		case !resp.Known:
			w.opt.Logf("lease %s: expired at coordinator; finishing anyway", g.LeaseID)
		}
	}
}

// lease polls for work once; the run loop's idle schedule paces the
// polls. A nil grant with nil error means no work.
func (w *Worker) lease(ctx context.Context) (*LeaseGrant, error) {
	var grant LeaseGrant
	status, err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: w.opt.Name}, &grant)
	if err != nil || status == http.StatusNoContent {
		return nil, err
	}
	return &grant, nil
}

// fail reports a lease-level failure (bounded retries).
func (w *Worker) fail(ctx context.Context, g *LeaseGrant, cause error) {
	w.opt.Logf("lease %s: %v", g.LeaseID, cause)
	err := w.call(ctx, "/v1/fail", FailRequest{
		Worker: w.opt.Name, LeaseID: g.LeaseID, StudyID: g.StudyID,
		Cells: g.Cells, Err: cause.Error(),
	}, nil)
	if err != nil {
		w.opt.Logf("lease %s: fail report: %v", g.LeaseID, err)
	}
	// Whatever made the lease fail, the next attempt starts clean.
	w.removeJournal(g)
}

// call POSTs a JSON request and decodes the response, retrying
// transient failures on the worker's schedule up to callAttempts times.
func (w *Worker) call(ctx context.Context, path string, req, resp any) error {
	var err error
	for attempt := 0; attempt < callAttempts; attempt++ {
		if attempt > 0 && w.wait(ctx, attempt) != nil {
			return err
		}
		if _, err = w.post(ctx, path, req, resp); !errors.As(err, new(transient)) {
			return err
		}
	}
	return err
}

// transient marks a failure that sending the same request again may
// cure: a transport error, a status other than 4xx, or a reply that
// does not decode.
type transient struct{ error }

// post sends one JSON request to the coordinator. A 200 reply is
// decoded into resp (when non-nil); a 204 carries no body. Any other
// status is an error, permanent for a 4xx (the request is wrong) and
// transient otherwise.
func (w *Worker) post(ctx context.Context, path string, req, resp any) (status int, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := httpClient.Do(httpReq)
	if err != nil {
		return 0, transient{err}
	}
	defer httpResp.Body.Close()
	switch status = httpResp.StatusCode; {
	case status == http.StatusOK && resp != nil:
		if err := json.NewDecoder(httpResp.Body).Decode(resp); err != nil {
			return status, transient{err}
		}
		return status, nil
	case status == http.StatusOK || status == http.StatusNoContent:
		return status, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 1024))
	err = fmt.Errorf("%s: %s: %s", path, httpResp.Status, bytes.TrimSpace(msg))
	if status >= 400 && status < 500 {
		return status, err
	}
	return status, transient{err}
}

// wait blocks before retry n on the worker's schedule, or until ctx is
// done, whose error it then returns. It is the dispatch code's
// context-aware replacement for time.Sleep.
func (w *Worker) wait(ctx context.Context, n int) error {
	t := time.NewTimer(w.delay(n))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// delay draws the next jitter sample and returns retry n's wait.
func (w *Worker) delay(n int) time.Duration {
	w.mu.Lock()
	u := w.jitter.Float64()
	w.mu.Unlock()
	return retryDelay(n, u)
}

// retryDelay is the wait before retry n (n >= 1) given a jitter sample
// u in [0, 1): d = retryBase·2ⁿ capped at retryMax, of which the top
// half is jittered, d·(1+u)/2, so a fleet of workers does not retry in
// lockstep.
func retryDelay(n int, u float64) time.Duration {
	d := retryBase
	for i := 0; i < n && d < retryMax; i++ {
		d *= 2
	}
	f := float64(min(d, retryMax))
	return time.Duration(f/2 + u*f/2)
}
