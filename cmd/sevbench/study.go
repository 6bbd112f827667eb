package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"sevsim/internal/artcache"
	"sevsim/internal/campaign"
	"sevsim/internal/core"
	"sevsim/internal/journal"
	"sevsim/internal/stats"
)

// env is what one workload process runs under.
type env struct {
	ctx     context.Context
	start   time.Time // process start, the origin of setup_s
	root    string    // the one temp root; removed on exit
	seed    int64
	smoke   bool
	minReps int
	seconds float64 // keep repeating until this much time was measured
	p       int
	dirs    int // temp dirs handed out so far
}

// dir returns a fresh directory under the temp root.
func (e *env) dir(name string) (string, error) {
	e.dirs++
	d := filepath.Join(e.root, fmt.Sprintf("%03d-%s", e.dirs, name))
	return d, os.MkdirAll(d, 0o755)
}

// studyOut is one finished study: the value, its saved bytes, and what
// producing them cost.
type studyOut struct {
	st    *core.Study
	bytes []byte
	wall  time.Duration
	cpu   float64
}

func (o studyOut) sha() string {
	sum := sha256.Sum256(o.bytes)
	return hex.EncodeToString(sum[:])
}

// runLocal executes the spec in this process — spec in, saved
// study.json bytes out — the way sevrepro does: run, save, drop the
// journal once the study is durable.
func (e *env) runLocal(spec core.Spec, journaled bool) (studyOut, error) {
	dir, err := e.dir("local")
	if err != nil {
		return studyOut{}, err
	}
	spec.Parallelism = e.p
	if journaled {
		spec.Journal = filepath.Join(dir, "journal.jsonl")
	}
	path := filepath.Join(dir, "study.json")

	t0, c0 := now(), cpuSeconds()
	st, err := spec.RunContext(e.ctx)
	if err != nil {
		return studyOut{}, err
	}
	if err := st.Save(path); err != nil {
		return studyOut{}, err
	}
	if spec.Journal != "" {
		if err := journal.Remove(spec.Journal); err != nil {
			return studyOut{}, err
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return studyOut{}, err
	}
	return studyOut{st: st, bytes: data, wall: now().Sub(t0), cpu: cpuSeconds() - c0}, nil
}

// warmup is the set-up pass, which is also a measurement: everything
// it costs lands in setup_s. For the local workloads it is the
// workload's own spec cut down to the RF target with one fault — every
// unit is prepared, almost nothing is injected — so work a later PR
// moves from the study into preparation shows here. For dist_warm it is
// the cold cache fill: a local run of the full spec with the shared
// cache attached, whose bytes are also the reference the merged study
// must equal.
func (e *env) warmup(w workload, spec core.Spec) (cache *artcache.Cache, ref *studyOut, err error) {
	if !w.dist {
		warm := spec
		warm.Targets = rfOnly()
		warm.Faults = 1
		_, err := e.runLocal(warm, false)
		return nil, nil, err
	}
	dir, err := e.dir("cache")
	if err != nil {
		return nil, nil, err
	}
	cache, err = artcache.Open(dir, artcache.Options{})
	if err != nil {
		return nil, nil, err
	}
	cold := spec
	cold.Cache = cache
	out, err := e.runLocal(cold, false)
	if err != nil {
		return nil, nil, err
	}
	return cache, &out, nil
}

// coldStart puts the process where a user's study starts, holding no
// memory: the heap is collected (twice: sync.Pool contents survive one
// collection, FreeOSMemory runs the second) and returned to the OS, and
// the resident-set high-water mark is reset. Without it the garbage of
// one study is the heap growth — and the first-touch page faults — of
// the next, repetitions slow down in the order they run, and the peak is
// that of the unluckiest one.
func coldStart() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// endToEnd is the untraced result of one workload process.
type endToEnd struct {
	Workload string
	Seed     int64
	Faults   int // injections per repetition (sum over cells)
	Cells    int
	Reps     []rep
	SetupS   float64
	Setups   []float64 // every set-up pass; SetupS is their median
	HalfW    float64
	Failed   int
	Problems []string
	SHA      string
	Host     hostInfo
	Metrics  metricSet

	study *core.Study // the last repetition's result, for the reference files
}

type rep struct {
	WallS   float64
	CPUS    float64
	PeakRSS float64 // MB, high-water mark reached during this repetition
	SHA     string
}

// runUntraced is the end-to-end measurement: set-up, then timed
// repetitions of the same study (at least minReps, and until
// e.seconds of measured time), then the output checks.
func (e *env) runUntraced(w workload) (endToEnd, error) {
	res := endToEnd{Workload: w.name, Seed: e.seed, Host: fingerprint()}
	spec := w.spec(e.seed, e.smoke)
	cache, ref, err := e.warmup(w, spec)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setups := []float64{seconds(now().Sub(e.start))}
	// A set-up of under a second is mostly process start and first-touch
	// page faults and varies by 20% from run to run; it is cheap enough
	// to do three times and report the median.
	for !w.dist && !e.smoke && setups[0] < 1 && len(setups) < 3 {
		coldStart()
		t0 := now()
		if _, _, err := e.warmup(w, spec); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, seconds(now().Sub(t0)))
	}
	res.SetupS, res.Setups = median(setups), setups

	// Repeat the study for e.seconds of measured time: another repetition
	// starts only while, at the median length of those so far, it would
	// end nearer to e.seconds than stopping now does. A run's length is
	// then e.seconds give or take half a repetition, which keeps the whole
	// set of runs inside the driver's time limit on a slow day.
	var last studyOut
	var measured time.Duration
	var walls []float64
	for i := 0; i < e.minReps || seconds(measured)+median(walls)/2 < e.seconds; i++ {
		coldStart()
		var out studyOut
		if w.dist {
			out, err = e.runDist(spec, cache.Dir())
		} else {
			out, err = e.runLocal(spec, w.journal)
		}
		if err != nil {
			return res, fmt.Errorf("%s: repetition %d: %w", w.name, i+1, err)
		}
		res.Reps = append(res.Reps, rep{WallS: seconds(out.wall), CPUS: out.cpu, PeakRSS: peakRSSMB(), SHA: out.sha()})
		measured += out.wall
		walls = append(walls, seconds(out.wall))
		last = out
	}

	res.study = last.st
	res.Cells = len(last.st.Results)
	res.Faults = res.Cells * spec.Faults
	res.SHA = res.Reps[0].SHA
	res.HalfW = maxHalfWidth(last.st)
	res.Failed, res.Problems = failedCells(last.st)
	allFail := func(format string, args ...any) {
		res.Failed = res.Cells
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	for i, r := range res.Reps {
		if r.SHA != res.SHA {
			allFail("repetition %d produced different study.json bytes than repetition 1", i+1)
		}
	}
	if ref != nil && !bytes.Equal(ref.bytes, last.bytes) {
		allFail("distributed merge differs from the local run of the same spec (%d vs %d bytes)", len(last.bytes), len(ref.bytes))
	}
	if err := e.roundTrip(last.bytes); err != nil {
		allFail("%v", err)
	}
	res.Host.LoadEnd = loadAvg()
	return res, nil
}

// loadBytes decodes saved study bytes through the public loader.
func (e *env) loadBytes(data []byte) (*core.Study, error) {
	dir, err := e.dir("load")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "study.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return core.Load(path)
}

// roundTrip checks that Load then Save reproduces the saved bytes.
func (e *env) roundTrip(data []byte) error {
	st, err := e.loadBytes(data)
	if err != nil {
		return fmt.Errorf("round trip: %w", err)
	}
	dir, err := e.dir("roundtrip")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "study.json")
	if err := st.Save(path); err != nil {
		return fmt.Errorf("round trip: %w", err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, again) {
		return fmt.Errorf("round trip: Save -> Load -> Save changed the bytes (%d -> %d)", len(data), len(again))
	}
	return nil
}

// failedCells counts the cells that did not produce a clean result and
// describes the first few, in study order.
func failedCells(st *core.Study) (failed int, problems []string) {
	quarantined := map[core.CellRef]string{}
	for _, f := range st.Failed {
		if f.Target != "" {
			quarantined[core.CellRef{March: f.March, Bench: f.Bench, Level: f.Level, Target: f.Target}] = f.Err
		}
	}
	for _, r := range st.Results {
		ref := core.CellRef{March: r.March, Bench: r.Bench, Level: r.Level, Target: r.Target}
		var why string
		switch {
		case r.Skipped != "":
			why = "skipped: " + r.Skipped
		case r.Interrupted:
			why = "interrupted"
		case r.Counts.Unexpected > 0:
			why = fmt.Sprintf("%d unexpected simulator panics", r.Counts.Unexpected)
		case quarantined[ref] != "":
			why = "quarantined: " + quarantined[ref]
		default:
			continue
		}
		failed++
		if len(problems) < 5 {
			problems = append(problems, ref.Key()+": "+why)
		}
	}
	return failed, problems
}

// maxHalfWidth is the study's stated confidence width: the widest
// Wilson 99% interval on AVF over its cells, as a half-width.
func maxHalfWidth(st *core.Study) float64 {
	var worst float64
	for _, r := range st.Results {
		if hw := halfWidth(r); hw > worst {
			worst = hw
		}
	}
	return worst
}

func halfWidth(r campaign.Result) float64 {
	if r.Faults == 0 {
		return 1
	}
	p := stats.WilsonInterval(r.Faults-r.Counts.Masked, r.Faults, 0.99)
	return (p.Hi - p.Lo) / 2
}
