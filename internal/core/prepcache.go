package core

// Prep-artifact caching: a prepared unit's golden run (compiled binary,
// golden result, commit trace, checkpoint stream) is a pure function of
// the prep configuration, so it can be memoized on disk
// (internal/artcache) across studies, processes, and worker leases.
// Nothing derived from the golden run is cached: the static RF bound is
// recomputed from the one pruner a prune unit builds, so a change to
// the static analysis needs no cache version.
//
// The contract has two halves:
//
//   - The key (prepConfig.cacheKey) is the configuration struct
//     itself, marshalled: full source text, machine config, compiler
//     target, optimization level, tracing, the checkpoint budget, and
//     the format version. A field added to the struct is in the key;
//     there is no second list to keep in step.
//
//   - The bundle (encode/decodePrepBundle) round-trips bit-exactly:
//     a decoded checkpoint is strictly Equal to the recorded one, so
//     warm, cold, and disabled runs produce byte-identical studies.
//     To make that structural rather than hoped-for, the cold path
//     also decodes the bundle it just built — both paths run the
//     campaign from decoded state.

import (
	"encoding/json"
	"fmt"

	"sevsim/internal/artcache"
	"sevsim/internal/binio"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
)

// prepBundleVersion is folded into every cache key. Bump it whenever
// the serialized layout of any component changes (machine.Snap,
// cpu.CoreState, mem chunks and pages, the bundle itself) so stale
// entries miss instead of decoding garbage.
//
// Version 2: cache snapshots are copy-on-write chunk tables and a
// stream writes each distinct chunk and memory page once (mem.Encoder);
// version-1 entries hold one flat slab set per snapshot.
//
// Version 3: the ladder is recorded during the golden run itself
// (checkpoint.RecordOnline), which puts its rungs on multiples of a
// power-of-two interval; version-2 entries hold evenly spaced rungs.
// Either ladder drives the same study, but an entry is a function of
// its key only if one key never names both.
//
// Version 4: a stream ends in the cache images of the golden machine at
// its halt (checkpoint.Stream.Halt), which the injector's retired-set
// verdict reads. A version-3 layout stops after the last rung and fails
// to decode; it is never a stream that quietly answers fewer injections.
//
// Version 5: a bundle no longer carries the static RF bound; a version-4
// bundle's bound may be stale against the current analysis.
//
// Version 6: a machine.Snap no longer carries a convergence hash, so
// every rung is 8 bytes shorter.
const prepBundleVersion = 6

// prepConfig is everything that determines one prep unit's artifacts,
// and nothing else: cacheKey marshals the whole struct, so its fields and
// their order are the key's format (TestCacheKeyIsTheStruct).
type prepConfig struct {
	Version int            // prepBundleVersion: serialized-format generation
	Machine machine.Config // full microarchitecture: golden run and checkpoints depend on all of it
	Bench   string
	Size    int
	Source  string // full source text, not just (bench, size): survives workload generator changes
	Level   string
	XLEN    int // compiler target, explicit even though derived from Machine:
	NumRegs int // the compile contract is (source, level, XLEN, NumArchRegs)
	Traced  bool
	// Checkpoints is the resolved budget (DefaultCheckpoints applied,
	// negatives normalized), so spellings of the same budget share an
	// entry.
	Checkpoints int
}

// cacheKey renders the canonical key string. The artifact cache hashes
// keys itself and echoes the full key inside each entry, so the key
// only needs to be canonical, not compact: JSON of a struct is
// deterministic (no maps anywhere in machine.Config).
func (pc prepConfig) cacheKey() string { return marshalKey("prep", pc) }

// marshalKey is kind, a NUL, and the JSON of one of the two key structs.
func marshalKey(kind string, cfg any) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// Plain structs of scalars, strings, and slices cannot fail to
		// marshal; a failure here is a programming error.
		panic(fmt.Sprintf("core: %s cache key: %v", kind, err))
	}
	return kind + "\x00" + string(b)
}

// cacheConfig assembles the unit's prep configuration.
func (u *prepUnit) cacheConfig(src string) prepConfig {
	tgt := compiler.TargetFor(u.cfg)
	return prepConfig{
		Version:     prepBundleVersion,
		Machine:     u.cfg,
		Bench:       u.bench.Name,
		Size:        u.size,
		Source:      src,
		Level:       u.level.String(),
		XLEN:        tgt.XLEN,
		NumRegs:     tgt.NumArchRegs,
		Traced:      u.prune,
		Checkpoints: resolveCheckpoints(expOptions.Checkpoints),
	}
}

// expConfig keys a prepared experiment by the exact binary rather than
// by (source, level), so a binary compiled outside the study's pipeline
// can be cached too. The full code is in the key — not a digest of
// it — so the cache's key echo turns even a hash collision into a miss.
type expConfig struct {
	Version     int
	Machine     machine.Config
	Name        string
	Code        []uint32
	Entry       uint64
	GlobalSize  uint64
	Traced      bool
	Checkpoints int
}

// cacheKey renders the canonical key string (see prepConfig.cacheKey).
func (ec expConfig) cacheKey() string { return marshalKey("exp", ec) }

// resolveCheckpoints normalizes a checkpoint budget the way the
// experiment constructor does, so spellings of the same budget share a
// cache entry.
func resolveCheckpoints(k int) int {
	switch {
	case k == 0:
		return faultinj.DefaultCheckpoints
	case k < 0:
		return -1
	}
	return k
}

// CachedExperiment builds a prepared experiment for an
// already-compiled program, consulting cache when non-nil: a hit skips
// the golden simulation and the checkpoints it records. Cached and
// fresh experiments drive byte-identical campaigns. A nil cache simply
// constructs the experiment.
func CachedExperiment(cache *artcache.Cache, cfg machine.Config, prog *machine.Program, opts faultinj.Options) (*faultinj.Experiment, error) {
	if cache == nil {
		return faultinj.NewExperimentOptions(cfg, prog, opts)
	}
	key := expConfig{
		Version:     prepBundleVersion,
		Machine:     cfg,
		Name:        prog.Name,
		Code:        prog.Code,
		Entry:       prog.Entry,
		GlobalSize:  prog.GlobalSize,
		Traced:      opts.Traced,
		Checkpoints: resolveCheckpoints(opts.Checkpoints),
	}.cacheKey()
	_, exp, err := loadBundle(cache, key, cfg, opts, "core: experiment "+prog.Name, func() ([]byte, error) {
		exp, err := faultinj.NewExperimentOptions(cfg, prog, opts)
		if err != nil {
			return nil, err
		}
		defer exp.Close()
		return encodePrepBundle(prog, exp.Artifacts()), nil
	})
	return exp, err
}

// loadBundle is the one cache read loop: fetch the bundle at key
// (building it with fill on a miss), decode it, and construct the
// experiment from the decoded artifacts — on a hit and right after a
// fill alike, so warm and cold runs campaign from the same decoded
// state. A bundle that passed the cache's checksum but fails semantic
// validation here (stale layout, mismatched geometry) is dropped and
// rebuilt once before giving up; what names the work in that error.
// fill's own errors are returned as they are.
func loadBundle(cache *artcache.Cache, key string, cfg machine.Config, opts faultinj.Options, what string,
	fill func() ([]byte, error)) (*machine.Program, *faultinj.Experiment, error) {
	for attempt := 0; ; attempt++ {
		blob, err := cache.GetOrFill(key, fill)
		if err != nil {
			return nil, nil, err
		}
		prog, art, err := decodePrepBundle(blob, cfg)
		if err == nil {
			var exp *faultinj.Experiment
			if exp, err = faultinj.NewExperimentFromArtifacts(cfg, prog, art, opts); err == nil {
				return prog, exp, nil
			}
		}
		cache.Drop(key)
		if attempt > 0 {
			return nil, nil, fmt.Errorf("%s: cached prep bundle unusable after rebuild: %w", what, err)
		}
	}
}

const prepBundleMagic = "SEVPREP1"

// encodePrepBundle serializes a prepared unit's golden run: the program
// and the golden-run artifacts.
func encodePrepBundle(prog *machine.Program, art faultinj.Artifacts) []byte {
	var w binio.Writer
	w.Raw([]byte(prepBundleMagic))

	w.String(prog.Name)
	w.U64(prog.Entry)
	w.U64(prog.GlobalSize)
	w.Uvarint(uint64(len(prog.Code)))
	w.Grow(4 * len(prog.Code))
	for _, word := range prog.Code {
		w.U32(word)
	}

	art.EncodeTo(&w)
	return w.Bytes()
}

// decodePrepBundle reads a bundle written by encodePrepBundle,
// validating every component against cfg. On success the caller owns
// the artifacts' checkpoint stream (NewExperimentFromArtifacts takes
// it over).
func decodePrepBundle(blob []byte, cfg machine.Config) (*machine.Program, faultinj.Artifacts, error) {
	fail := func(err error) (*machine.Program, faultinj.Artifacts, error) {
		return nil, faultinj.Artifacts{}, err
	}
	r := binio.NewReader(blob)
	if string(r.Raw(len(prepBundleMagic))) != prepBundleMagic {
		return fail(fmt.Errorf("core: prep bundle: bad magic"))
	}

	prog := &machine.Program{}
	prog.Name = r.String()
	prog.Entry = r.U64()
	prog.GlobalSize = r.U64()
	n := int(r.Uvarint())
	if n < 0 || n > r.Len()/4 {
		return fail(fmt.Errorf("core: prep bundle: code length %d exceeds remaining input", n))
	}
	prog.Code = make([]uint32, n)
	for i := range prog.Code {
		prog.Code[i] = r.U32()
	}
	if err := r.Err(); err != nil {
		return fail(fmt.Errorf("core: prep bundle program: %w", err))
	}
	// machine.New maps code, globals and stack at fixed bases and asserts
	// on overlap; no compiled program comes near, so one that would is a
	// damaged entry.
	if uint64(n)*4 > machine.GlobalBase-machine.CodeBase || prog.GlobalSize > machine.StackTop-machine.StackSize-machine.GlobalBase {
		return fail(fmt.Errorf("core: prep bundle program: %d code words and %d global bytes do not fit the memory layout", n, prog.GlobalSize))
	}

	art, err := faultinj.DecodeArtifacts(r, cfg)
	if err != nil {
		return fail(fmt.Errorf("core: prep bundle: %w", err))
	}
	if r.Len() != 0 {
		if art.Stream != nil {
			art.Stream.Release()
		}
		return fail(fmt.Errorf("core: prep bundle: %d trailing bytes", r.Len()))
	}
	return prog, art, nil
}
