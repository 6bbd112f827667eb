// Package faultinj implements the GeFIN-style statistical fault
// injector: single-bit transient faults placed uniformly at random over
// (cycle x bit) for each hardware structure field, with end-to-end
// outcome classification into the paper's five fault-effect classes.
package faultinj

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"sevsim/internal/checkpoint"
	"sevsim/internal/cpu"
	"sevsim/internal/machine"
	"sevsim/internal/mem"
)

// Outcome is the effect class of one injection, following the paper's
// taxonomy (Masked / SDC / Crash / Timeout / Assert).
type Outcome int

const (
	Masked Outcome = iota
	SDC
	Crash
	Timeout
	Assert
	NumOutcomes
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "Masked"
	case SDC:
		return "SDC"
	case Crash:
		return "Crash"
	case Timeout:
		return "Timeout"
	case Assert:
		return "Assert"
	}
	return "?"
}

// Target is one injectable hardware structure field.
type Target struct {
	// Component is the paper-level structure (L1I, L1D, L2, RF, LQ, SQ,
	// IQ, ROB); Field distinguishes sub-arrays (data/tag, src/dst, ...).
	Component string
	Field     string

	bits func(*machine.Machine) uint64
	flip func(*machine.Machine, uint64)

	// deadBefore, when set, answers a single-bit flip of bit from golden
	// images alone, before anything is restored (DESIGN.md §10): lo is the
	// checkpoint at or below the injection cycle, next the image after it
	// (the following checkpoint, or the halt image in the last interval)
	// and halt the caches as the golden run left them. It names the rule
	// that proves the run Masked, or reports false; m is consulted for
	// geometry only. The cache fields have one.
	deadBefore func(m *machine.Machine, lo, next, halt *machine.CacheImages, bit uint64) (fastPathExit, bool)
}

// Name returns "Component.Field", or just the component when the
// structure has a single field.
func (t Target) Name() string {
	if t.Field == "" {
		return t.Component
	}
	return t.Component + "." + t.Field
}

// Bits returns the number of injectable bits in this machine's instance
// of the target.
func (t Target) Bits(m *machine.Machine) uint64 { return t.bits(m) }

// Flip flips the addressed bit.
func (t Target) Flip(m *machine.Machine, bit uint64) { t.flip(m, bit) }

func coreTarget(component, field string, f cpu.Field) Target {
	return Target{
		Component: component,
		Field:     field,
		bits:      func(m *machine.Machine) uint64 { return m.Core.FieldBits(f) },
		flip:      func(m *machine.Machine, bit uint64) { m.Core.FlipBit(f, bit) },
	}
}

// NewTarget builds a custom injectable target from explicit bit-count
// and bit-flip functions, for structures outside the paper's fifteen
// built-in fields (experimental arrays, ablation studies, tests).
func NewTarget(component, field string,
	bits func(*machine.Machine) uint64,
	flip func(*machine.Machine, uint64)) Target {
	return Target{Component: component, Field: field, bits: bits, flip: flip}
}

// cacheLevel is one cache of the hierarchy: the live cache of a machine
// and its image among a machine's three.
type cacheLevel struct {
	component string
	live      func(*machine.Machine) *mem.Cache
	image     func(*machine.CacheImages) *mem.CacheState
}

var cacheLevels = []cacheLevel{
	{"L1I", func(m *machine.Machine) *mem.Cache { return m.L1I }, func(c *machine.CacheImages) *mem.CacheState { return c.L1I }},
	{"L1D", func(m *machine.Machine) *mem.Cache { return m.L1D }, func(c *machine.CacheImages) *mem.CacheState { return c.L1D }},
	{"L2", func(m *machine.Machine) *mem.Cache { return m.L2 }, func(c *machine.CacheImages) *mem.CacheState { return c.L2 }},
}

// cacheTargets returns the data and tag fields of one cache level. Both
// place a flip by the line it lands in, by two uses of
// mem.CacheState.QuietSince:
//
//   - quiet interval: the line is invalid at lo and its set was not
//     looked up from there to next, so at the flip the line is still
//     invalid and its data, tag and dirty bit are state the convergence
//     relation excludes. The valid bit never is;
//   - retired set: the set was not looked up from lo to the golden halt.
//     Whatever one flip changes in it — data, tag, dirty or valid bit, of
//     a valid line or not — no later cycle reads, so the run stays in
//     lockstep with golden to its last cycle.
func cacheTargets(l cacheLevel) []Target {
	place := func(lo, next, halt *machine.CacheImages, line int, validBit bool) (fastPathExit, bool) {
		at := l.image(lo)
		switch {
		case !validBit && !at.Valid(line) && l.image(next).QuietSince(at.Clock, line):
			return exitQuietInterval, true
		case l.image(halt).QuietSince(at.Clock, line):
			return exitRetiredSet, true
		}
		return 0, false
	}
	return []Target{
		{Component: l.component, Field: "data",
			bits: func(m *machine.Machine) uint64 { return l.live(m).DataBitCount() },
			flip: func(m *machine.Machine, b uint64) { l.live(m).FlipDataBit(b) },
			deadBefore: func(m *machine.Machine, lo, next, halt *machine.CacheImages, b uint64) (fastPathExit, bool) {
				return place(lo, next, halt, l.live(m).DataBitLine(b), false)
			}},
		{Component: l.component, Field: "tag",
			bits: func(m *machine.Machine) uint64 { return l.live(m).TagBitCount() },
			flip: func(m *machine.Machine, b uint64) { l.live(m).FlipTagBit(b) },
			deadBefore: func(m *machine.Machine, lo, next, halt *machine.CacheImages, b uint64) (fastPathExit, bool) {
				line, validBit := l.live(m).TagBitLine(b)
				return place(lo, next, halt, line, validBit)
			}},
	}
}

// Targets returns every injectable field, grouped by component in the
// paper's presentation order: the 8 components with all their
// sub-fields (15 fields total).
func Targets() []Target {
	return slices.Concat(
		cacheTargets(cacheLevels[0]), cacheTargets(cacheLevels[1]), cacheTargets(cacheLevels[2]),
		[]Target{
			coreTarget("RF", "", cpu.FieldPRF),
			coreTarget("LQ", "", cpu.FieldLQ),
			coreTarget("SQ", "", cpu.FieldSQ),
			coreTarget("IQ", "src", cpu.FieldIQSrc),
			coreTarget("IQ", "dst", cpu.FieldIQDst),
			coreTarget("ROB", "pc", cpu.FieldROBPC),
			coreTarget("ROB", "dest", cpu.FieldROBDest),
			coreTarget("ROB", "old", cpu.FieldROBOld),
			coreTarget("ROB", "ctrl", cpu.FieldROBCtrl),
		})
}

// TargetByName resolves "L1D.data"-style names.
func TargetByName(name string) (Target, bool) {
	for _, t := range Targets() {
		if t.Name() == name {
			return t, true
		}
	}
	return Target{}, false
}

// Components returns the component names in presentation order.
func Components() []string {
	return []string{"L1I", "L1D", "L2", "RF", "LQ", "SQ", "IQ", "ROB"}
}

// Experiment is a prepared injection experiment: one (machine config,
// binary) pair with its golden (fault-free) reference run. An
// Experiment is safe for concurrent use: campaigns over different
// targets may share one instance.
type Experiment struct {
	Config       machine.Config
	Program      *machine.Program
	GoldenCycles uint64
	GoldenOutput []uint64
	GoldenStats  machine.Result

	// Trace is the golden run's commit stream (program order), recorded
	// only by NewTracedExperiment and nil otherwise. It feeds the
	// binary-level ACE analysis: reconstructing the committed rename map
	// at any cycle is what lets an injection pruner prove a register-file
	// fault masked without simulating it. The pruners index it in place.
	Trace *cpu.CommitTrace

	// Bit counts depend only on the configuration, so they are computed
	// once per experiment and cached by target name (see TargetBits).
	bitsMu   sync.Mutex
	bitCache map[string]uint64

	// ckpts is the golden checkpoint stream (nil when checkpointing is
	// disabled): injections fast-forward to the latest checkpoint
	// at-or-before their cycle instead of simulating from 0, and, with
	// fastExit, compare against later checkpoints to classify Masked at
	// the first provable state convergence. The stream is immutable and
	// shared read-only by every worker; scratch holds the per-worker
	// recycled machines that checkpoints are restored into.
	ckpts    *checkpoint.Stream
	fastExit bool
	scratch  sync.Pool

	// exits counts the fast path's injections by the exit they took, and
	// the cycle counters what they simulated before the flip and, by
	// final outcome, after it (FastPathStats).
	exits          [numFastPathExits]atomic.Uint64
	replayCycles   atomic.Uint64
	postFlipCycles [NumOutcomes]atomic.Uint64
}

// newMachine builds every machine the package simulates on. It is a
// variable so the tests can count machines.
var newMachine = machine.New

// timeoutFactor follows the paper: a run is a Timeout when it exceeds
// twice the fault-free execution time.
const timeoutFactor = 2

// NewExperiment runs the golden simulation and returns the prepared
// experiment, with checkpoint fast-forward and the early-convergence
// Masked exit enabled at their defaults.
func NewExperiment(cfg machine.Config, prog *machine.Program) (*Experiment, error) {
	return NewExperimentOptions(cfg, prog, Options{})
}

// NewTracedExperiment is NewExperiment with commit tracing: the golden
// run additionally records one CommitEvent per committed instruction
// (Experiment.Trace), the input to static ACE analysis and injection
// pruning. The trace costs about 4 bytes per committed instruction in
// memory and 19 encoded, so it is opt-in rather than the default.
func NewTracedExperiment(cfg machine.Config, prog *machine.Program) (*Experiment, error) {
	return NewExperimentOptions(cfg, prog, Options{Traced: true})
}

// NewExperimentOptions is the fully configurable constructor: it builds
// one machine and simulates the program once. Unless opts.Checkpoints
// is negative, that same pass records the golden checkpoint stream the
// injection fast path restores from (checkpoint.RecordOnline), so a
// prepared unit costs one golden run plus its snapshots.
func NewExperimentOptions(cfg machine.Config, prog *machine.Program, opts Options) (*Experiment, error) {
	m := newMachine(cfg, prog)
	var trace *cpu.CommitTrace
	if opts.Traced {
		trace = &cpu.CommitTrace{}
		m.Core.SetCommitHook(trace.Append)
	}
	k := opts.Checkpoints
	if k == 0 {
		k = DefaultCheckpoints
	}
	// A negative budget records nothing: the stream comes back empty.
	stream, res := checkpoint.RecordOnline(m, 1<<40, k)
	if res.Outcome != machine.OutcomeOK {
		stream.Release()
		return nil, &GoldenError{Result: res}
	}
	// The result's output aliases the core's buffer; detach it so the
	// machine can go on to serve injections.
	res.Output = append([]uint64(nil), res.Output...)
	e := &Experiment{
		Config:       cfg,
		Program:      prog,
		GoldenCycles: res.Cycles,
		GoldenOutput: res.Output,
		GoldenStats:  res,
		Trace:        trace,
	}
	if stream.Len() > 0 {
		e.ckpts = stream
		e.fastExit = !opts.NoFastExit
		// The golden machine becomes the first scratch machine: a restore
		// overwrites whatever state a finished run left behind.
		m.Core.SetCommitHook(nil)
		e.putMachine(m)
	}
	return e, nil
}

// Pruner decides, without simulating, that a sampled fault is provably
// masked. Implementations must be safe for concurrent use: campaign
// workers consult the pruner from many goroutines. The binary-level
// ACE analyzer (internal/binanalysis) provides the register-file
// pruner; the interface lives here so the campaign driver does not
// depend on the analyzer.
type Pruner interface {
	// Prunable reports whether the injection into target is provably
	// masked, with a short human-readable reason for audit trails.
	Prunable(t Target, inj Injection) (bool, string)
}

// PruneKind records which static proof class a pruner assigned an
// injection: provably masked at register or bit granularity, or
// provably a deterministic crash (DUE). The kind decides the synthetic
// outcome a pruned injection records — Masked for the dead-value
// proofs, Crash for PruneDUE.
type PruneKind uint8

const (
	PruneNone PruneKind = iota // no static proof; must simulate
	PruneReg                   // masked: the whole mapped register is dead
	PruneBit                   // masked: bit-granular analysis proves the bit dead
	PruneDUE                   // crash-certain: fault propagation proves a deterministic fault
)

// String names the proof class for reports.
func (k PruneKind) String() string {
	switch k {
	case PruneReg:
		return "reg"
	case PruneBit:
		return "bit"
	case PruneDUE:
		return "due"
	}
	return "none"
}

// KindPruner is an optional Pruner refinement that also reports the
// granularity of each proof, so campaigns can split pruner hit rates
// into register-granular vs bit-granular counts.
type KindPruner interface {
	Pruner
	// PrunableKind classifies the injection: PruneNone when it cannot
	// be proven masked, otherwise the granularity of the proof.
	PrunableKind(t Target, inj Injection) (PruneKind, string)
}

// GoldenError reports a fault-free run that did not complete.
type GoldenError struct{ Result machine.Result }

func (e *GoldenError) Error() string {
	return "faultinj: golden run failed: " + e.Result.Outcome.String() + " " + e.Result.Reason
}

// Injection is one sampled fault.
type Injection struct {
	Cycle uint64
	Bit   uint64
}

// TargetBits returns the injectable bit count of the target under this
// experiment's machine configuration. Bit counts are pure functions of
// the configuration, so the first query fills the cache for every
// built-in target from one borrowed machine and keeps none.
func (e *Experiment) TargetBits(t Target) uint64 {
	e.bitsMu.Lock()
	defer e.bitsMu.Unlock()
	if bits, ok := e.bitCache[t.Name()]; ok {
		return bits
	}
	var m *machine.Machine
	if e.ckpts != nil {
		m = e.getMachine()
		defer e.putMachine(m)
	} else {
		m = newMachine(e.Config, e.Program)
	}
	if e.bitCache == nil {
		e.bitCache = make(map[string]uint64)
		for _, bt := range Targets() {
			e.bitCache[bt.Name()] = bt.Bits(m)
		}
	}
	bits, ok := e.bitCache[t.Name()]
	if !ok { // a custom target (NewTarget)
		bits = t.Bits(m)
		e.bitCache[t.Name()] = bits
	}
	return bits
}

// SampleError reports a target with no injectable (cycle x bit) space.
type SampleError struct {
	Target string
	Reason string
}

func (e *SampleError) Error() string {
	return "faultinj: cannot sample " + e.Target + ": " + e.Reason
}

// Sample draws n uniform (cycle, bit) faults for the target, following
// the statistical fault injection formulation of Leveugle et al. It
// returns a SampleError when the (cycle x bit) space is empty — a
// zero-bit target (e.g. a zero-entry queue configuration) or a golden
// run with zero cycles — instead of panicking inside the RNG.
func (e *Experiment) Sample(t Target, n int, seed int64) ([]Injection, error) {
	bits := e.TargetBits(t)
	if e.GoldenCycles == 0 {
		return nil, &SampleError{Target: t.Name(), Reason: "golden run has zero cycles"}
	}
	if bits == 0 {
		return nil, &SampleError{Target: t.Name(), Reason: "target has zero injectable bits"}
	}
	if n < 0 {
		n = 0
	}
	r := rand.New(rand.NewSource(seed))
	inj := make([]Injection, n)
	for i := range inj {
		inj[i] = Injection{
			Cycle: uint64(r.Int63n(int64(e.GoldenCycles))),
			Bit:   uint64(r.Int63n(int64(bits))),
		}
	}
	return inj, nil
}

// InjectResult is the classified outcome of one injection.
type InjectResult struct {
	Outcome    Outcome
	Reason     string
	Cycles     uint64
	Unexpected bool // assert came from a recovered non-modelled panic
	Pruned     bool // Masked proven statically; the run was never simulated
	// PruneKind records the proof class when Pruned is set (PruneReg,
	// PruneBit or PruneDUE); PruneNone otherwise.
	PruneKind PruneKind
}

// Inject runs one end-to-end fault injection: the machine is
// fast-forwarded to the latest golden checkpoint at-or-before the
// injection cycle (or started fresh when checkpointing is disabled),
// the addressed bit is flipped at the chosen cycle, and the run is
// classified against the golden reference.
func (e *Experiment) Inject(t Target, inj Injection) InjectResult {
	return e.runInjection(t, inj, SingleBit)
}

// hookFor schedules the model's bit flips at the injection cycle: the
// addressed bit, or Width adjacent bits wrapping at the array end.
func (e *Experiment) hookFor(t Target, inj Injection, model Model) machine.Hook {
	if model == SingleBit {
		return machine.Hook{At: inj.Cycle, Fn: func(mm *machine.Machine) { t.Flip(mm, inj.Bit) }}
	}
	// TargetBits consults the cached per-target count instead of probing
	// a throwaway machine, so the multi-bit path allocates no more than
	// the single-bit one.
	bits := e.TargetBits(t)
	return machine.Hook{
		At: inj.Cycle,
		Fn: func(mm *machine.Machine) {
			for k := uint64(0); k < model.Width(); k++ {
				t.Flip(mm, (inj.Bit+k)%bits)
			}
		},
	}
}

// classify maps a simulation result to the paper's fault-effect classes.
func (e *Experiment) classify(res machine.Result) InjectResult {
	out := InjectResult{Reason: res.Reason, Cycles: res.Cycles, Unexpected: res.Unexpected}
	switch res.Outcome {
	case machine.OutcomeOK:
		if slices.Equal(res.Output, e.GoldenOutput) {
			out.Outcome = Masked
		} else {
			out.Outcome = SDC
		}
	case machine.OutcomeCrash:
		out.Outcome = Crash
	case machine.OutcomeTimeout:
		out.Outcome = Timeout
	default:
		out.Outcome = Assert
	}
	return out
}
