package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"sevsim/internal/artcache"
	"sevsim/internal/dispatch/backoff"
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

	// Parallelism is the campaign parallelism per cell (core.Spec
	// semantics; <= 0: GOMAXPROCS).
	Parallelism int

	// CacheDir, when set, opens a prep-artifact cache shared across
	// every lease and study this worker executes: a re-leased or
	// resubmitted cell loads its compiled binary, golden result, and
	// checkpoint stream instead of recomputing them. Results are
	// byte-identical either way.
	CacheDir string

	// CacheMaxMB bounds the cache size (0: unbounded).
	CacheMaxMB int64

	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)

	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client

	// Poll paces the idle loop: the delay between empty or failed
	// lease polls grows by this policy and resets on a grant
	// (default backoff.Default).
	Poll *backoff.Policy
}

// Worker is the lease-execution loop: poll the coordinator for a
// lease, compute its cells with the journaled local engine, report the
// outcomes, repeat. All failure handling is bounded-retry with
// exponential backoff — a worker survives coordinator restarts and
// reports results for leases the coordinator no longer remembers.
type Worker struct {
	opt    WorkerOptions
	client *http.Client
	poll   backoff.Policy
	jitter *backoff.Source
	cache  *artcache.Cache // nil: uncached; shared across leases and studies
}

// NewWorker validates the options and returns a ready worker.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.Coordinator == "" || opt.Name == "" || opt.Workdir == "" {
		return nil, fmt.Errorf("dispatch: worker needs a coordinator URL, a name, and a workdir")
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	poll := backoff.Default
	if opt.Poll != nil {
		poll = *opt.Poll
	}
	var cache *artcache.Cache
	if opt.CacheDir != "" {
		var err error
		cache, err = artcache.Open(opt.CacheDir, artcache.Options{MaxBytes: opt.CacheMaxMB << 20})
		if err != nil {
			return nil, fmt.Errorf("dispatch: worker cache: %w", err)
		}
	}
	h := fnv.New64a()
	io.WriteString(h, opt.Name)
	return &Worker{
		opt:    opt,
		client: client,
		poll:   poll,
		jitter: backoff.NewSource(int64(h.Sum64())),
		cache:  cache,
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
			if err := w.poll.Sleep(ctx, idle, w.jitter); err != nil {
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
	var cacheBefore artcache.Stats
	if w.cache != nil {
		spec.Cache = w.cache
		cacheBefore = w.cache.Stats()
	}

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
	var cacheDelta artcache.Stats
	if w.cache != nil {
		cacheDelta = w.cache.Stats().Minus(cacheBefore)
	}
	var resp CompleteResponse
	err = w.call(ctx, "/v1/complete", CompleteRequest{
		Worker: w.opt.Name, LeaseID: g.LeaseID, StudyID: g.StudyID, Outcomes: outcomes,
		Cache: cacheDelta,
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

// lease polls for work. A nil grant with nil error means no work.
func (w *Worker) lease(ctx context.Context) (*LeaseGrant, error) {
	req := LeaseRequest{Worker: w.opt.Name}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Coordinator+"/v1/lease", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("lease: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var grant LeaseGrant
	if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
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
// transient transport and 5xx failures with exponential backoff. The
// retry budget is deliberately generous for completion reports: the
// compute behind them is expensive, the report is idempotent, and a
// coordinator mid-restart comes back within a few delays.
func (w *Worker) call(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	const attempts = 8
	var last error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := w.poll.Sleep(ctx, attempt, w.jitter); err != nil {
				return last
			}
		}
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Coordinator+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		httpReq.Header.Set("Content-Type", "application/json")
		httpResp, err := w.client.Do(httpReq)
		if err != nil {
			last = err
			continue
		}
		ok := httpResp.StatusCode == http.StatusOK || httpResp.StatusCode == http.StatusNoContent
		if !ok {
			msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 1024))
			httpResp.Body.Close()
			last = fmt.Errorf("%s: %s: %s", path, httpResp.Status, bytes.TrimSpace(msg))
			if httpResp.StatusCode >= 400 && httpResp.StatusCode < 500 {
				return last // our bug, not transient
			}
			continue
		}
		if resp != nil && httpResp.StatusCode == http.StatusOK {
			err = json.NewDecoder(httpResp.Body).Decode(resp)
			httpResp.Body.Close()
			if err != nil {
				last = err
				continue
			}
			return nil
		}
		httpResp.Body.Close()
		return nil
	}
	return last
}

// Cache exposes the worker's prep-artifact cache (nil when the worker
// runs uncached), for lifetime summaries at shutdown.
func (w *Worker) Cache() *artcache.Cache {
	return w.cache
}
