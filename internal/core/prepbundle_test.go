package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"sevsim/internal/artcache"
	"sevsim/internal/binio"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/isa"
	"sevsim/internal/machine"
	"sevsim/internal/mem"
	"sevsim/internal/workloads"
)

// TestPrepBundleBytesPinned holds a whole encoded bundle (qsort O2 on the
// A15, TestSize, Prune) to its sha256, so a cache filled by one tree is
// read by the next: the bytes must be the same bytes. A deliberate layout
// or timing change bumps prepBundleVersion and re-records the hash.
//
// Version 6 is version 5 without the 8-byte convergence hash at the head
// of each of its 32 rungs: 256 bytes fewer, nothing else moved.
func TestPrepBundleBytesPinned(t *testing.T) {
	const wantLen, wantSum = 549997, "b3f69162eb1b9ff486c9348c06b6f185f136b92e770fe9724122e900f371fc63"
	if prepBundleVersion != 6 {
		t.Fatalf("prepBundleVersion is %d: re-record the pinned hash for the new layout", prepBundleVersion)
	}
	bench := workloads.Qsort()
	u := &prepUnit{cfg: machine.CortexA15Like(), bench: bench, size: bench.TestSize, level: compiler.O2,
		prune: true}
	blob, err := u.buildBundle(bench.Source(bench.TestSize))
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(blob)); len(blob) != wantLen || sum != wantSum {
		t.Errorf("bundle is %d bytes, sha256 %s; version 6 was pinned at %d bytes, sha256 %s", len(blob), sum, wantLen, wantSum)
	}
}

// withV4Static puts a version-4 static section back into blob, a bundle
// encodePrepBundle wrote for art: the layout before the bound left the
// bundle, where the section sat between the program and the artifacts.
// It returns the version-4 bytes and the section's offset.
func withV4Static(tb testing.TB, blob []byte, art faultinj.Artifacts, s StaticRF) ([]byte, int) {
	tb.Helper()
	var tail, sec binio.Writer
	art.EncodeTo(&tail)
	at := len(blob) - len(tail.Bytes())
	if at < 0 || !bytes.Equal(blob[at:], tail.Bytes()) {
		tb.Fatal("a prep bundle no longer ends in its artifacts")
	}
	sec.Bool(true)
	sec.String(s.March)
	sec.String(s.Bench)
	sec.String(s.Level)
	for _, word := range []uint64{
		math.Float64bits(s.MaskedLB), math.Float64bits(s.AVFUpperBound), s.PrunableBits, s.SpaceBits,
		math.Float64bits(s.RegMaskedLB), math.Float64bits(s.RegAVFUpperBound), s.RegPrunableBits,
		math.Float64bits(s.DueLB), math.Float64bits(s.SDCUpperBound), s.DuePrunableBits,
	} {
		sec.U64(word)
	}
	return append(append(blob[:at:at], sec.Bytes()...), blob[at:]...), at
}

// bundleProgram sums 1..n through a store/load pair: a few cycles per
// iteration, small enough that a bundle of it is a useful fuzz seed.
func bundleProgram(n int32) *machine.Program {
	const a0, a1, a2 = isa.RegA0, isa.RegA1, isa.RegA2
	return &machine.Program{Name: "bundle", Entry: machine.CodeBase, GlobalSize: 4096, Code: isa.Assemble([]isa.Instr{
		isa.I(isa.OpLui, a2, 0, int32(machine.GlobalBase>>16)),
		isa.I(isa.OpAddi, a0, isa.RegZero, 0),
		isa.I(isa.OpAddi, a1, isa.RegZero, 1),
		isa.R(isa.OpAdd, a0, a0, a1), // loop:
		isa.Store(isa.OpSw, a0, a2, 0),
		isa.I(isa.OpAddi, a1, a1, 1),
		isa.I(isa.OpAddi, isa.RegT0, a1, -n-1),
		isa.Branch(isa.OpBne, isa.RegT0, isa.RegZero, int32(3-7-1)),
		isa.Load(isa.OpLw, a0, a2, 0),
		isa.Out(a0),
		isa.Halt(),
	})}
}

// testBundles encodes a real prepared unit three ways: as
// encodePrepBundle writes it, in the layout before prepBundleVersion 4,
// whose stream stops after the last rung, and in version 4's, which
// carried a static bound.
func testBundles(tb testing.TB, cfg machine.Config, prog *machine.Program) (current, preHaltImage, withStatic []byte) {
	tb.Helper()
	exp, err := faultinj.NewExperimentOptions(cfg, prog, faultinj.Options{Traced: true, Checkpoints: 4})
	if err != nil {
		tb.Fatal(err)
	}
	defer exp.Close()
	art := exp.Artifacts()
	current = encodePrepBundle(prog, art)
	// The stream is the last thing in a bundle.
	var stream, rungsOnly binio.Writer
	art.Stream.EncodeTo(&stream)
	var enc mem.Encoder
	rungsOnly.Uvarint(uint64(art.Stream.Len()))
	for _, sn := range art.Stream.Snaps() {
		sn.EncodeTo(&rungsOnly, &enc)
	}
	head := len(current) - len(stream.Bytes())
	if head < 0 || string(current[head:]) != string(stream.Bytes()) {
		tb.Fatal("a prep bundle no longer ends in its checkpoint stream")
	}
	withStatic, _ = withV4Static(tb, current, art, StaticRF{March: cfg.Name, Bench: "bundle", Level: "O0",
		MaskedLB: 0.25, AVFUpperBound: 0.75, PrunableBits: 10, SpaceBits: 40})
	return current, append(current[:head:head], rungsOnly.Bytes()...), withStatic
}

// TestPreHaltImageBundleIsAMiss: a bundle in the version-3 layout never
// becomes an experiment whose stream lacks the halt image. Its key
// differs (TestCacheMissesStaleVersions); and should one be found under
// a current key anyway, decoding fails on the missing image, the entry
// is dropped and the unit rebuilt — a miss, not fewer verdicts.
func TestPreHaltImageBundleIsAMiss(t *testing.T) {
	cfg := machine.CortexA15Like()
	prog := bundleProgram(300)
	current, old, _ := testBundles(t, cfg, prog)
	if _, art, err := decodePrepBundle(current, cfg); err != nil || art.Stream.Halt() == nil {
		t.Fatalf("current bundle: error %v, halt image %v", err, art.Stream)
	} else {
		art.Stream.Release()
	}
	if _, _, err := decodePrepBundle(old, cfg); err == nil || !strings.Contains(err.Error(), "halt image") {
		t.Fatalf("bundle without a halt image decoded: error %v", err)
	}

	opts := faultinj.Options{Traced: true, Checkpoints: 4}
	cache := openCache(t, t.TempDir())
	key := expConfig{Version: prepBundleVersion, Machine: cfg, Name: prog.Name, Code: prog.Code, Entry: prog.Entry,
		GlobalSize: prog.GlobalSize, Traced: true, Checkpoints: 4}.cacheKey()
	if err := cache.Put(key, old); err != nil {
		t.Fatal(err)
	}
	exp, err := CachedExperiment(cache, cfg, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if exp.Artifacts().Stream.Halt() == nil {
		t.Error("experiment built from a stream without a halt image")
	}
	if stats := cache.Stats(); stats.Corrupt != 1 || stats.Puts != 2 {
		t.Errorf("cache stats %s, want the old-layout entry dropped (1 corrupt) and the unit rebuilt (2 puts with the test's own)", stats)
	}
}

// TestFastPathStatsRecordedColdWarm: one unit prepared directly (a
// recorded stream), through a cold cache (filled, then decoded) and from
// the warm cache (decoded) answers the same injections by the same
// exits — the halt image is in the bundle, so no path has fewer
// verdicts than another.
func TestFastPathStatsRecordedColdWarm(t *testing.T) {
	cfg := machine.CortexA15Like()
	prog := bundleProgram(2000)
	opts := faultinj.Options{Checkpoints: 8}
	cache := openCache(t, t.TempDir())
	var want faultinj.FastPathStats
	for _, how := range []string{"recorded", "cold", "warm"} {
		var through *artcache.Cache // nil: prepared directly
		if how != "recorded" {
			through = cache
		}
		exp, err := CachedExperiment(through, cfg, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range faultinj.Targets() {
			inj, err := exp.Sample(target, 40, 11)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range inj {
				exp.Inject(target, in)
			}
		}
		got := exp.FastPathStats()
		exp.Close()
		if how == "recorded" {
			if want = got; want.DeadQuietInterval == 0 || want.DeadRetiredSet == 0 || want.DeadAtFlip == 0 {
				t.Fatalf("vacuous: exits %+v", want)
			}
		} else if got != want {
			t.Errorf("%s experiment: exits %+v, recorded stream: %+v", how, got, want)
		}
	}
	if stats := cache.Stats(); stats.Puts != 1 || stats.Hits != 1 {
		t.Errorf("cache stats %s, want one fill and one hit", stats)
	}
}

// FuzzDecodePrepBundle feeds decodePrepBundle arbitrary bytes, seeded
// with real bundles (in the current layout, the one before the halt
// image, and version 4's with a static bound). It must return an error or
// products that are safe to use the way a worker uses them: an
// experiment built from them restores, injects and answers from its
// golden images without a raw panic or an out-of-range access.
func FuzzDecodePrepBundle(f *testing.F) {
	cfg := machine.CortexA15Like()
	prog := bundleProgram(60)
	current, old, withStatic := testBundles(f, cfg, prog)
	f.Add(current)
	f.Add(old)
	f.Add(withStatic)
	f.Add(current[:len(current)/2])
	f.Add([]byte(prepBundleMagic))
	targets := faultinj.Targets()

	f.Fuzz(func(t *testing.T, blob []byte) {
		prog, art, err := decodePrepBundle(blob, cfg)
		if err != nil {
			return
		}
		exp, err := faultinj.NewExperimentFromArtifacts(cfg, prog, art, faultinj.Options{})
		if err != nil {
			if art.Stream != nil {
				art.Stream.Release()
			}
			return
		}
		defer exp.Close()
		// The golden cycle count is input too, and sets every injection's
		// cycle budget: only a plausible one is simulated against.
		if art.Stream == nil || exp.GoldenCycles == 0 || exp.GoldenCycles > 1<<12 {
			return
		}
		art.Stream.ResidentBytes()
		for i, sn := range art.Stream.Snaps() {
			for _, target := range targets[i%3*2 : i%3*2+2] { // one cache level per rung, data and tag
				bits := exp.TargetBits(target)
				for _, bit := range []uint64{0, bits / 3, bits - 1} {
					exp.Inject(target, faultinj.Injection{Cycle: sn.Cycle + 1, Bit: bit})
				}
			}
		}
	})
}
