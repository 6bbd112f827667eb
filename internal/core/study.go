// Package core orchestrates the paper's characterization study end to
// end: it compiles every benchmark at every optimization level for each
// microarchitecture, runs the fault-free golden simulations, executes
// the statistical fault-injection campaigns for every hardware
// structure field, and exposes the aggregations behind each figure
// (AVF, weighted AVF, FIT, FPE, ECC scenarios).
package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"time"

	"sevsim/internal/artcache"
	"sevsim/internal/campaign"
	"sevsim/internal/compiler"
	"sevsim/internal/dispatch/backoff"
	"sevsim/internal/faultinj"
	"sevsim/internal/journal"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// Spec configures a study.
type Spec struct {
	Machines   []machine.Config
	Benchmarks []workloads.Benchmark
	Levels     []compiler.OptLevel
	Targets    []faultinj.Target

	// Faults per campaign cell. The paper uses 2,000 (2.88% margin at
	// 99% confidence); scaled-down studies report the wider margin.
	Faults int
	Seed   int64

	// Size overrides the benchmark scale; nil uses DefaultSize. The
	// journal fingerprints the *resolved* sizes (see Spec.Wire), so two
	// specs whose Size funcs differ but resolve identically share a
	// journal.
	Size func(workloads.Benchmark) int

	// Parallelism sizes the study-wide worker pool that all compiles,
	// golden runs, and injections share (<=0: GOMAXPROCS). Results are
	// identical at every setting; see Run.
	Parallelism int

	// Progress, when non-nil, receives human-readable progress lines.
	// Lines are serialized, but arrive in completion order, which under
	// Parallelism > 1 differs from the deterministic result order.
	Progress func(format string, args ...any)

	// Prune enables the static ACE pruner: golden runs record commit
	// traces, each unit gets a binary-level liveness analysis, and RF
	// injections that provably land in dead registers are classified
	// Masked without simulation (campaign.Counts.Pruned counts them).
	// The study additionally records per-unit static RF bounds
	// (Study.Static). Outcome classifications are identical with and
	// without pruning; only the work to obtain them changes.
	Prune bool

	// Journal, when non-empty, is the path of a durable JSONL journal:
	// every completed prep-unit golden and campaign cell is appended
	// (checksummed, fsync'd) as it finishes, and a later run with the
	// same spec replays the journal to skip already-finished work. A
	// study killed at any point and resumed this way produces a
	// byte-identical study.json to an uninterrupted run. A journal
	// recorded under a different spec is rejected.
	Journal string

	// KeepGoing quarantines failures instead of aborting the study: a
	// unit whose compile, golden run, or analysis fails (after Retries
	// bounded retries) is recorded in Study.Failed, its cells are marked
	// skipped, and every other cell completes exactly as in a clean
	// run. Without KeepGoing the first failure cancels the study, which
	// is the historical behavior.
	KeepGoing bool

	// Retries is the number of additional preparation attempts after a
	// unit's first failure, for riding out transient faults (0: fail on
	// the first error). The attempt count is recorded in the Failure.
	// Attempts after the first wait out the shared exponential backoff
	// with jitter (RetryBackoff), so a transient fault gets time to
	// clear instead of burning every retry back to back.
	Retries int

	// RetryBackoff overrides the pacing between preparation retries
	// (nil: backoff.Default). The jitter is sampled from a
	// deterministic per-unit seed, so retry schedules — like results —
	// reproduce run to run.
	RetryBackoff *backoff.Policy

	// CellTimeout, when positive, arms a per-cell watchdog: a campaign
	// cell that exceeds this wall-clock budget is abandoned (in-flight
	// injections drain), recorded in Study.Failed as stuck, and marked
	// skipped — instead of hanging the whole pool. Stuck classification
	// depends on the wall clock, so enable it only for unattended runs
	// where liveness beats strict reproducibility.
	CellTimeout time.Duration

	// Cache, when non-nil, memoizes prep artifacts on disk (compiled
	// binary, golden result, commit trace, checkpoint stream, static RF
	// bound) keyed by everything that determines them — see
	// prepConfig.cacheKey. A warm unit skips its compile and its
	// golden run. Cold, warm, and disabled runs produce byte-
	// identical studies: a hit decodes to state strictly equal to a
	// fresh prep, and corrupt or stale entries are discarded and
	// rebuilt (TestCacheEquivalenceByteIdentical).
	Cache *artcache.Cache
}

// DefaultSpec returns the full study of the paper at a configurable
// fault count: both microarchitectures, all eight benchmarks, four
// levels, and all fifteen structure fields.
func DefaultSpec(faults int) Spec {
	return Spec{
		Machines:   machine.Configs(),
		Benchmarks: workloads.All(),
		Levels:     compiler.Levels,
		Targets:    faultinj.Targets(),
		Faults:     faults,
		Seed:       2021, // the paper's publication year; any value works
	}
}

// Golden records one fault-free run.
type Golden struct {
	March string
	Bench string
	Level string

	Cycles      uint64
	CodeWords   int
	Committed   uint64
	IPC         float64
	Mispredicts uint64
	L1DMissRate float64
	AvgPRFLive  float64
	AvgROBOcc   float64
	AvgIQOcc    float64
	AvgLQOcc    float64
	AvgSQOcc    float64
}

// Study is the complete result set.
type Study struct {
	MachineNames []string
	BenchNames   []string
	LevelNames   []string
	TargetNames  []string
	Faults       int

	Goldens []Golden
	Results []campaign.Result

	// Static holds one static RF vulnerability bound per (march, bench,
	// level) unit, parallel to Goldens. Populated only by Prune studies;
	// empty otherwise (and omitted from saved JSON).
	Static []StaticRF `json:",omitempty"`

	// Failed records the units and cells quarantined by a keep-going
	// run (Spec.KeepGoing) or flagged stuck by the cell watchdog, in
	// unit-enumeration order. Empty for clean or aborting studies, and
	// omitted from saved JSON so historical files are byte-stable.
	Failed []Failure `json:",omitempty"`

	// Lazily built lookup indexes; the aggregation accessors are called
	// per cell by every figure, and a linear scan over the full study's
	// 960 results per lookup made them O(n²).
	indexOnce sync.Once
	resultIdx map[cellKey]int
	goldenIdx map[cellKey]int
}

// StaticRF is the static three-way outcome bound for one unit's
// register file: the provably-masked fraction of the (cycle x bit)
// space lower-bounds the Masked rate, the provably-crash-certain
// fraction lower-bounds the DUE rate, and what neither proof class
// covers upper-bounds the SDC rate (MaskedLB + DueLB + SDCUpperBound
// == 1). The Masked complement upper-bounds the injected RF AVF.
type StaticRF struct {
	March string
	Bench string
	Level string

	// Headline (bit-granular) bound: known-bits + bit-level liveness.
	MaskedLB      float64
	AVFUpperBound float64
	PrunableBits  uint64
	SpaceBits     uint64

	// Register-granular bound from the dead-register analysis alone;
	// MaskedLB >= RegMaskedLB on every unit by construction, and the
	// gap measures what bit granularity bought.
	RegMaskedLB      float64
	RegAVFUpperBound float64
	RegPrunableBits  uint64

	// Three-way refinement from the fault-propagation (must-DUE)
	// analysis: DueLB lower-bounds the crash-certain fraction and
	// SDCUpperBound caps what remains for SDC once both proof classes
	// are subtracted. Zero on records written before the propagation
	// analysis existed.
	DueLB           float64
	SDCUpperBound   float64
	DuePrunableBits uint64
}

// Failure is one quarantined unit or cell: the error that removed it
// from the study without aborting the rest.
type Failure struct {
	March string
	Bench string
	Level string
	// Target is empty for unit-level (compile/golden/analysis) failures
	// and names the structure field for per-cell failures.
	Target string `json:",omitempty"`

	// Stage is where the failure happened: "compile", "golden",
	// "analyze", or "cell".
	Stage string
	Err   string
	// Retries is how many extra attempts were made before quarantining
	// (bounded by Spec.Retries).
	Retries int `json:",omitempty"`
	// Stuck marks a cell abandoned by the watchdog for exceeding
	// Spec.CellTimeout rather than failing outright.
	Stuck bool `json:",omitempty"`
}

// StaticFor returns the static RF bound for a cell, when recorded.
func (st *Study) StaticFor(march, bench, level string) (StaticRF, bool) {
	for _, s := range st.Static {
		if s.March == march && s.Bench == bench && s.Level == level {
			return s, true
		}
	}
	return StaticRF{}, false
}

// cellKey addresses one campaign cell (Target empty for goldens).
type cellKey struct {
	March, Bench, Level, Target string
}

// compilerTarget derives the backend target from a machine config.
func compilerTarget(cfg machine.Config) compiler.Target {
	return compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs}
}

// cellSeed derives a deterministic per-cell seed.
func cellSeed(master int64, parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return master ^ int64(h.Sum64()&0x7fffffffffffffff)
}

func goldenOf(cfg machine.Config, bench string, level compiler.OptLevel,
	prog *machine.Program, exp *faultinj.Experiment) Golden {
	stats := exp.GoldenStats.Stats
	cyc := float64(stats.Cycles)
	l1d := exp.GoldenStats.L1D
	missRate := 0.0
	if l1d.Hits+l1d.Misses > 0 {
		missRate = float64(l1d.Misses) / float64(l1d.Hits+l1d.Misses)
	}
	return Golden{
		March:       cfg.Name,
		Bench:       bench,
		Level:       level.String(),
		Cycles:      stats.Cycles,
		CodeWords:   len(prog.Code),
		Committed:   stats.Committed,
		IPC:         stats.IPC(),
		Mispredicts: stats.Mispredicts,
		L1DMissRate: missRate,
		AvgPRFLive:  float64(stats.PRFLive) / cyc,
		AvgROBOcc:   float64(stats.ROBOccupancy) / cyc,
		AvgIQOcc:    float64(stats.IQOccupancy) / cyc,
		AvgLQOcc:    float64(stats.LQOccupancy) / cyc,
		AvgSQOcc:    float64(stats.SQOccupancy) / cyc,
	}
}

// --- accessors --------------------------------------------------------------

// buildIndex keys every golden and campaign result by cell once, so
// lookups are O(1) instead of rescanning the whole result slice. It is
// built lazily because a Study may come from Run or from Load.
func (st *Study) buildIndex() {
	st.indexOnce.Do(func() {
		st.goldenIdx = make(map[cellKey]int, len(st.Goldens))
		for i, g := range st.Goldens {
			st.goldenIdx[cellKey{g.March, g.Bench, g.Level, ""}] = i
		}
		st.resultIdx = make(map[cellKey]int, len(st.Results))
		for i, r := range st.Results {
			st.resultIdx[cellKey{r.March, r.Bench, r.Level, r.Target}] = i
		}
	})
}

// Golden returns the fault-free record for a cell.
func (st *Study) Golden(march, bench, level string) (Golden, bool) {
	st.buildIndex()
	if i, ok := st.goldenIdx[cellKey{march, bench, level, ""}]; ok {
		return st.Goldens[i], true
	}
	return Golden{}, false
}

// Result returns one campaign cell.
func (st *Study) Result(march, bench, level, target string) (campaign.Result, bool) {
	st.buildIndex()
	if i, ok := st.resultIdx[cellKey{march, bench, level, target}]; ok {
		return st.Results[i], true
	}
	return campaign.Result{}, false
}

// AcrossBenches returns one result per benchmark for a fixed (march,
// level, target) — the input to the weighted AVF of Equation 1.
func (st *Study) AcrossBenches(march, level, target string) []campaign.Result {
	var out []campaign.Result
	for _, bench := range st.BenchNames {
		if r, ok := st.Result(march, bench, level, target); ok {
			out = append(out, r)
		}
	}
	return out
}

// CellStructures returns one result per structure field for a fixed
// (march, bench, level) — the input to whole-CPU FIT.
func (st *Study) CellStructures(march, bench, level string) []campaign.Result {
	var out []campaign.Result
	for _, target := range st.TargetNames {
		if r, ok := st.Result(march, bench, level, target); ok {
			out = append(out, r)
		}
	}
	return out
}

// MachineConfig resolves a stored machine name back to its config.
func MachineConfig(name string) (machine.Config, bool) {
	for _, cfg := range machine.Configs() {
		if cfg.Name == name {
			return cfg, true
		}
	}
	return machine.Config{}, false
}

// --- persistence -------------------------------------------------------------

// Save writes the study as JSON, crash-safely: the bytes go to a temp
// file in the destination directory, are fsync'd, and are renamed over
// the target, so a crash mid-save leaves either the old file or the new
// one — never a torn mixture.
func (st *Study) Save(path string) error {
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return err
	}
	return journal.AtomicWriteFile(path, data)
}

// Load reads a study saved with Save. A file cut short by a crash of a
// pre-atomic-save writer (or by disk corruption) is reported as such
// rather than as a bare JSON parse error.
func Load(path string) (*Study, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := &Study{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("core: study file %s is corrupt or truncated (re-run or resume the study to regenerate it): %w", path, err)
	}
	return st, nil
}
