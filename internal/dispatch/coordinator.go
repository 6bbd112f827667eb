package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sevsim/internal/artcache"
	"sevsim/internal/core"
	"sevsim/internal/journal"
)

// Coordinator journal record kinds. Submissions and merged outcomes
// (a quarantine is an outcome carrying its failure) are durable; leases
// are not — they are soft state that expires and reassigns itself, so
// a restarted coordinator simply re-leases whatever the journal does
// not prove finished.
const (
	kindSubmit  = "submit"
	kindOutcome = "outcome"
)

type submitRecord struct {
	ID   string
	Spec StudySpec
}

type outcomeRecord struct {
	Study   string
	Outcome core.CellOutcome
}

// Options configures a Coordinator.
type Options struct {
	// Dir is the coordinator's durable state directory; the journal
	// lives at Dir/coordinator. Required.
	Dir string

	// LeaseTTL is how long a worker may hold a lease without
	// heartbeating before its cells are reassigned (default 30s).
	LeaseTTL time.Duration

	// MaxAttempts bounds lease grants per cell before it is
	// quarantined into Study.Failed (default 3).
	MaxAttempts int

	// WorkerBudget is the per-worker error budget: expiries and
	// failures charge a strike, completions repay one, and a worker at
	// the limit gets no new leases (default 3). When every known
	// worker is suspended, all budgets reset — suspension must never
	// deadlock a study that still has live workers.
	WorkerBudget int

	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)

	// Clock overrides the time source, for tests that drive lease
	// expiry synthetically (default: the wall clock).
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.WorkerBudget <= 0 {
		o.WorkerBudget = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Clock == nil {
		o.Clock = func() time.Time {
			return time.Now() //lint:clock lease deadlines are wall-clock soft state, never part of a result
		}
	}
	return o
}

// studyRun is one study's in-memory state: the resolved spec, the
// merge in progress, and the lease table. result is set exactly once,
// when the last cell lands.
type studyRun struct {
	id    string
	wire  StudySpec
	spec  core.Spec
	asm   *core.Assembler
	table *leaseTable

	result []byte // the study's Save bytes; nil while incomplete
	subs   map[chan StatusEvent]struct{}

	// cacheByWorker accumulates the prep-artifact cache deltas each
	// worker reported with its completions, and prunedDUEByWorker the
	// crash-certain injections each worker's static pruner classified
	// without simulating — observability only, never part of the merged
	// study.
	cacheByWorker     map[string]artcache.Stats
	prunedDUEByWorker map[string]int
}

func (r *studyRun) state() string {
	if r.result != nil {
		return "complete"
	}
	return "running"
}

// Coordinator owns the durable study state and the lease tables. All
// methods are safe for concurrent use; the HTTP server (server.go) is
// a thin codec over them, so tests can drive the coordinator directly.
type Coordinator struct {
	opt Options

	mu       sync.Mutex
	jw       *journal.Writer
	studies  map[string]*studyRun
	draining bool
	closed   bool
}

// OpenCoordinator opens (or creates) the coordinator state in
// opt.Dir and replays its journal: submitted studies are rebuilt, every
// journaled outcome is re-merged, and the remaining
// cells return to pending — a restarted coordinator loses leases (they
// re-expire naturally) but never a completed cell.
func OpenCoordinator(opt Options) (*Coordinator, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, fmt.Errorf("dispatch: coordinator needs a state directory")
	}
	jw, recs, err := journal.Open(filepath.Join(opt.Dir, "coordinator"), journal.Options{})
	if err != nil {
		return nil, err
	}
	c := &Coordinator{opt: opt, jw: jw, studies: map[string]*studyRun{}}
	for _, rec := range recs {
		if err := c.replay(rec); err != nil {
			jw.Close()
			return nil, err
		}
	}
	for _, r := range c.studies { //lint:ordered each study finalizes independently
		c.finalize(r)
	}
	return c, nil
}

func (c *Coordinator) replay(rec journal.Record) error {
	switch rec.Kind {
	case kindSubmit:
		var sr submitRecord
		if err := json.Unmarshal(rec.Data, &sr); err != nil {
			return fmt.Errorf("dispatch: submit record: %w", err)
		}
		r, err := c.newRun(sr.ID, sr.Spec)
		if err != nil {
			return err
		}
		c.studies[sr.ID] = r
	case kindOutcome:
		var or outcomeRecord
		if err := json.Unmarshal(rec.Data, &or); err != nil {
			return fmt.Errorf("dispatch: outcome record: %w", err)
		}
		r, ok := c.studies[or.Study]
		if !ok {
			return fmt.Errorf("dispatch: outcome for unknown study %s", or.Study)
		}
		if _, err := r.asm.Add(or.Outcome); err != nil {
			return err
		}
	default:
		// Quarantines were records of their own before they were
		// outcomes; nothing reads those any more.
		return fmt.Errorf("dispatch: %q record is not from this journal format; remove the state directory %s and resubmit (finished cells are recomputed)", rec.Kind, c.opt.Dir)
	}
	return nil
}

func (c *Coordinator) newRun(id string, wire StudySpec) (*studyRun, error) {
	spec, err := wire.Spec()
	if err != nil {
		return nil, err
	}
	asm := core.NewAssembler(spec)
	return &studyRun{
		id:                id,
		wire:              wire,
		spec:              spec,
		asm:               asm,
		table:             newLeaseTable(spec.Cells(), asm.Has, c.opt.LeaseTTL, c.opt.MaxAttempts, c.opt.WorkerBudget),
		subs:              map[chan StatusEvent]struct{}{},
		cacheByWorker:     map[string]artcache.Stats{},
		prunedDUEByWorker: map[string]int{},
	}, nil
}

// Submit registers a study. Submission is idempotent by content: the
// same spec maps to the same ID, and resubmitting it reports the
// existing run instead of restarting it.
func (c *Coordinator) Submit(wire StudySpec) (SubmitResponse, error) {
	wire, err := wire.Normalize()
	if err != nil {
		return SubmitResponse{}, err
	}
	id := wire.ID()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return SubmitResponse{}, fmt.Errorf("dispatch: coordinator is closed")
	}
	if r, ok := c.studies[id]; ok {
		return SubmitResponse{ID: id, Cells: r.asm.Total(), Existing: true}, nil
	}
	r, err := c.newRun(id, wire)
	if err != nil {
		return SubmitResponse{}, err
	}
	if err := c.jw.Append(kindSubmit, submitRecord{ID: id, Spec: wire}); err != nil {
		return SubmitResponse{}, fmt.Errorf("dispatch: journal submit: %w", err)
	}
	c.studies[id] = r
	c.opt.Logf("study %s submitted: %d cells", id, r.asm.Total())
	return SubmitResponse{ID: id, Cells: r.asm.Total()}, nil
}

// Lease grants a worker the pending cells of one unit. A nil grant with
// a nil error means no work is available right now (everything leased,
// the worker is suspended, or the coordinator is draining) — the
// worker should back off and poll again.
func (c *Coordinator) Lease(req LeaseRequest) (*LeaseGrant, error) {
	if req.Worker == "" {
		return nil, fmt.Errorf("dispatch: lease request needs a worker name")
	}
	now := c.opt.Clock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining || c.closed {
		return nil, nil
	}
	c.sweep(now)
	for _, id := range c.studyIDs() {
		r := c.studies[id]
		if r.result != nil {
			continue
		}
		l := r.table.acquire(req.Worker, now)
		if l == nil {
			continue
		}
		g := &LeaseGrant{
			LeaseID: r.id + "/" + l.id,
			StudyID: r.id,
			Spec:    r.wire,
			TTL:     c.opt.LeaseTTL,
		}
		for _, i := range l.cells {
			g.Cells = append(g.Cells, r.table.slots[i].ref)
		}
		c.opt.Logf("lease %s: %d cells to %s", g.LeaseID, len(g.Cells), req.Worker)
		return g, nil
	}
	return nil, nil
}

// Heartbeat extends a lease. Cancel tells the worker to abandon the
// lease (study finished without it); Known=false means the lease
// expired or predates a coordinator restart — the worker should finish
// and report anyway, since completions are merged by cell key.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	studyID, leaseID := splitLeaseID(req.LeaseID)
	now := c.opt.Clock()

	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.studies[studyID]
	if !ok {
		return HeartbeatResponse{}
	}
	if r.result != nil {
		return HeartbeatResponse{Cancel: true}
	}
	return HeartbeatResponse{Known: r.table.heartbeat(leaseID, now)}
}

// Complete merges a lease's outcomes (see commit). Duplicates (the
// cell already completed under another lease, or named earlier in this
// report) are counted and discarded. Accepting outcomes from expired or
// unknown leases is deliberate: the compute is done, and the merge is
// idempotent.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.studies[req.StudyID]
	if !ok {
		return CompleteResponse{}, fmt.Errorf("dispatch: unknown study %s", req.StudyID)
	}
	accepted, err := c.commit(r, req.Worker, req.Outcomes)
	if err != nil {
		return CompleteResponse{}, err
	}
	// Counted once the whole report is in, so a retried report does not
	// count its cache traffic twice.
	if !req.Cache.Empty() && req.Worker != "" {
		s := r.cacheByWorker[req.Worker]
		s.Add(req.Cache)
		r.cacheByWorker[req.Worker] = s
	}
	c.finalize(r)
	return CompleteResponse{Accepted: accepted, Duplicates: len(req.Outcomes) - accepted}, nil
}

// commit makes outcomes durable and merges them, for reports and
// quarantines alike. Every outcome is checked, the fresh ones are
// written to the journal and fsync'd once, and only then does anything
// else learn of them: a failed write or sync leaves every cell where it
// was and returns the error, and a retry lands them (what the failed
// attempt left in the journal replays as duplicates). Returns how many
// outcomes were merged. Caller holds c.mu.
func (c *Coordinator) commit(r *studyRun, worker string, outcomes []core.CellOutcome) (accepted int, err error) {
	fresh := make([]core.CellOutcome, 0, len(outcomes))
	named := make(map[core.CellRef]bool, len(outcomes))
	for _, o := range outcomes {
		ok, err := r.asm.Check(o)
		if err != nil {
			return 0, fmt.Errorf("dispatch: study %s: %w", r.id, err)
		}
		if ok && !named[o.Cell] {
			named[o.Cell] = true
			fresh = append(fresh, o)
		}
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	for _, o := range fresh {
		if err := c.jw.Write(kindOutcome, outcomeRecord{Study: r.id, Outcome: o}); err != nil {
			return 0, fmt.Errorf("dispatch: journal outcome: %w", err)
		}
	}
	if err := c.jw.Sync(); err != nil {
		return 0, fmt.Errorf("dispatch: journal outcome: %w", err)
	}
	for _, o := range fresh {
		if _, err := r.asm.Add(o); err != nil {
			return accepted, err
		}
		accepted++
		r.table.complete(worker, o.Cell)
		if n := o.Result.Counts.PrunedDUE; n > 0 && worker != "" {
			r.prunedDUEByWorker[worker] += n
		}
		c.notify(r, o.Cell.Key(), worker)
	}
	return accepted, nil
}

// Fail reports that a worker could not compute its leased cells. Each
// cell returns to the pending pool, or is quarantined once its grant
// count reaches MaxAttempts. A quarantine that cannot be made durable
// fails the request; the worker's retry, or the next sweep, lands it.
func (c *Coordinator) Fail(req FailRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.studies[req.StudyID]
	if !ok {
		return fmt.Errorf("dispatch: unknown study %s", req.StudyID)
	}
	c.opt.Logf("lease %s failed on %s: %s", req.LeaseID, req.Worker, req.Err)
	var exhausted []core.CellRef
	for _, ref := range req.Cells {
		if r.table.fail(req.Worker, ref, req.Err) {
			exhausted = append(exhausted, ref)
		}
	}
	err := c.quarantine(r, exhausted)
	c.finalize(r)
	return err
}

// Sweep expires overdue leases across all studies, reassigning their
// cells and quarantining the ones out of attempts. The server calls
// this periodically; tests call it with a synthetic clock.
func (c *Coordinator) Sweep() {
	now := c.opt.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweep(now)
}

func (c *Coordinator) sweep(now time.Time) {
	for _, id := range c.studyIDs() {
		r := c.studies[id]
		if r.result != nil {
			continue
		}
		if err := c.quarantine(r, r.table.expire(now)); err != nil {
			c.opt.Logf("study %s: %v", r.id, err)
		}
		c.finalize(r)
	}
}

// quarantine commits the failure outcome of each cell out of attempts.
// Caller holds c.mu.
func (c *Coordinator) quarantine(r *studyRun, cells []core.CellRef) error {
	outcomes := make([]core.CellOutcome, 0, len(cells))
	for _, ref := range cells {
		s := r.table.slot(ref)
		c.opt.Logf("study %s: cell %s quarantined after %d attempts: %s", r.id, ref, s.attempts, s.lastErr)
		outcomes = append(outcomes, core.CellFailed(ref, core.Failure{
			March: ref.March, Bench: ref.Bench, Level: ref.Level, Target: ref.Target,
			Stage:   "dispatch",
			Err:     s.lastErr,
			Retries: s.attempts - 1,
		}))
	}
	_, err := c.commit(r, "", outcomes)
	return err
}

// finalize renders the study bytes once every cell is terminal.
// Caller holds c.mu.
func (c *Coordinator) finalize(r *studyRun) {
	if r.result != nil || !r.asm.Complete() {
		return
	}
	st, err := r.asm.Study()
	if err != nil {
		c.opt.Logf("study %s: finalize: %v", r.id, err)
		return
	}
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		c.opt.Logf("study %s: finalize: %v", r.id, err)
		return
	}
	r.result = data
	c.opt.Logf("study %s complete: %d cells, %d quarantined", r.id, r.asm.Total(), r.asm.Failed())
	c.notify(r, "", "")
	for ch := range r.subs { //lint:ordered closing every subscriber; order is invisible
		close(ch)
		delete(r.subs, ch)
	}
}

// notify fans a status event out to the study's subscribers without
// blocking the coordinator: a subscriber that cannot keep up misses
// intermediate events, not the terminal one (Subscribe's final
// snapshot covers it). Caller holds c.mu.
func (c *Coordinator) notify(r *studyRun, cell, worker string) {
	ev := c.status(r)
	ev.Cell = cell
	ev.Worker = worker
	for ch := range r.subs { //lint:ordered fan-out of one event; order is invisible
		select {
		case ch <- ev:
		default:
		}
	}
}

func (c *Coordinator) status(r *studyRun) StatusEvent {
	leased, workers := r.table.counts()
	ev := StatusEvent{
		Study: r.id, State: r.state(),
		Done: r.asm.Done(), Total: r.asm.Total(),
		Leased: leased, Quarantined: r.asm.Failed(), Workers: workers,
	}
	if len(r.cacheByWorker) > 0 {
		// Copy the map: the event outlives c.mu (subscribers marshal it
		// later) while Complete keeps mutating the original.
		ev.CacheByWorker = make(map[string]artcache.Stats, len(r.cacheByWorker))
		for name, s := range r.cacheByWorker { //lint:ordered commutative sum into a copied map
			ev.Cache.Add(s)
			ev.CacheByWorker[name] = s
		}
	}
	if len(r.prunedDUEByWorker) > 0 {
		ev.PrunedDUEByWorker = make(map[string]int, len(r.prunedDUEByWorker))
		for name, n := range r.prunedDUEByWorker { //lint:ordered commutative sum into a copied map
			ev.PrunedDUE += n
			ev.PrunedDUEByWorker[name] = n
		}
	}
	return ev
}

// Status returns a study's progress snapshot.
func (c *Coordinator) Status(id string) (StatusEvent, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.studies[id]
	if !ok {
		return StatusEvent{}, false
	}
	return c.status(r), true
}

// Result returns a completed study's Save bytes. ok is false while the
// study is unknown or still running.
func (c *Coordinator) Result(id string) (data []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, exists := c.studies[id]
	if !exists || r.result == nil {
		return nil, false
	}
	return r.result, true
}

// Subscribe registers for a study's progress events. The channel is
// closed when the study completes (or when cancel is called); a study
// already complete returns an immediately-closed channel.
func (c *Coordinator) Subscribe(id string) (events <-chan StatusEvent, cancel func(), err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.studies[id]
	if !ok {
		return nil, nil, fmt.Errorf("dispatch: unknown study %s", id)
	}
	ch := make(chan StatusEvent, 64)
	if r.result != nil {
		close(ch)
		return ch, func() {}, nil
	}
	r.subs[ch] = struct{}{}
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if _, live := r.subs[ch]; live {
			delete(r.subs, ch)
			close(ch)
		}
	}, nil
}

// Drain stops granting new leases and waits for every submitted study
// to finish or the context to expire. Used for graceful shutdown:
// in-flight leases get their TTL to report before the process exits.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		c.mu.Lock()
		idle := true
		for _, r := range c.studies { //lint:ordered order-insensitive conjunction
			if r.result == nil {
				idle = false
			}
		}
		c.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// JournalStats counts the coordinator journal's records, fsyncs and
// bytes since it was opened.
func (c *Coordinator) JournalStats() journal.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jw.Stats()
}

// Close flushes and closes the journal. Leases outstanding at close
// are abandoned; a reopened coordinator re-leases their cells.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, r := range c.studies { //lint:ordered closing every subscriber; order is invisible
		for ch := range r.subs { //lint:ordered closing every subscriber; order is invisible
			close(ch)
			delete(r.subs, ch)
		}
	}
	return c.jw.Close()
}

// studyIDs returns the study IDs in stable order, so lease grants and
// sweeps don't depend on map iteration.
func (c *Coordinator) studyIDs() []string {
	ids := make([]string, 0, len(c.studies))
	for id := range c.studies { //lint:ordered sorted below
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// splitLeaseID separates a wire lease ID ("study/lease") back into its
// parts; heartbeats carry only the combined ID.
func splitLeaseID(id string) (study, lease string) {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '/' {
			return id[:i], id[i+1:]
		}
	}
	return "", id
}
