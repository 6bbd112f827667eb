package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sevsim/internal/artcache"
	"sevsim/internal/binanalysis"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
)

// cacheSpec is tinySpec shrunk to one machine so the cache tests stay
// fast while still exercising prune analysis and every prep product.
func cacheSpec(t *testing.T) Spec {
	t.Helper()
	spec := tinySpec(t)
	spec.Machines = spec.Machines[:1]
	spec.Prune = true
	return spec
}

func openCache(t *testing.T, dir string) *artcache.Cache {
	t.Helper()
	c, err := artcache.Open(dir, artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheEquivalenceByteIdentical is the cache's core correctness
// claim: disabled, cold, and warm runs — at serial and high
// parallelism — produce byte-identical study.json.
func TestCacheEquivalenceByteIdentical(t *testing.T) {
	spec := cacheSpec(t)
	baseline, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, baseline)

	dir := t.TempDir()
	for _, par := range []int{1, 8} {
		for _, label := range []string{"cold", "warm"} {
			if label == "cold" {
				os.RemoveAll(dir)
			}
			s := spec
			s.Parallelism = par
			s.Cache = openCache(t, dir)
			st, err := s.Run()
			if err != nil {
				t.Fatalf("parallel %d %s: %v", par, label, err)
			}
			if !bytes.Equal(saveBytes(t, st), want) {
				t.Fatalf("parallel %d %s cache run differs from uncached baseline", par, label)
			}
			stats := s.Cache.Stats()
			units := len(spec.Machines) * len(spec.Benchmarks) * len(spec.Levels)
			if label == "cold" && stats.Puts != uint64(units) {
				t.Fatalf("cold run stored %d bundles, want %d", stats.Puts, units)
			}
			if label == "warm" && (stats.Hits != uint64(units) || stats.Misses != 0) {
				t.Fatalf("warm run: %s, want %d pure hits", stats, units)
			}
		}
	}
}

// TestCacheCorruptEntriesRebuilt damages every cached bundle — bit
// flips in one, truncation in another, all of them on the second pass
// — and asserts the study is still byte-identical: damaged entries are
// detected, discarded, and transparently rebuilt.
func TestCacheCorruptEntriesRebuilt(t *testing.T) {
	spec := cacheSpec(t)
	baseline, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, baseline)

	dir := t.TempDir()
	s := spec
	s.Cache = openCache(t, dir)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for i, e := range entries {
		if !strings.HasSuffix(e.Name(), ".art") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			raw[len(raw)/2] ^= 0x41 // payload bit flip
		} else {
			raw = raw[:len(raw)-7] // torn write
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("no cache entries to damage")
	}

	s = spec
	s.Parallelism = 8
	s.Cache = openCache(t, dir)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, st), want) {
		t.Fatal("run over damaged cache differs from baseline")
	}
	if stats := s.Cache.Stats(); stats.Corrupt != uint64(damaged) {
		t.Fatalf("discarded %d corrupt entries, want %d (%s)", stats.Corrupt, damaged, stats)
	}
}

// TestCacheStoreFailureCostsOnlyTime: a cache whose disk refuses every
// store (its directory replaced by a regular file, which fails even as
// root) leaves the study byte-identical to an uncached run; every unit
// builds its bundle, uses it, and counts the store that failed.
func TestCacheStoreFailureCostsOnlyTime(t *testing.T) {
	spec := cacheSpec(t)
	baseline, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cache")
	s := spec
	s.Cache = openCache(t, dir)
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatalf("a cache that cannot store failed the study: %v", err)
	}
	if !bytes.Equal(saveBytes(t, st), saveBytes(t, baseline)) {
		t.Fatal("study over an unwritable cache differs from the uncached run")
	}
	units := uint64(len(spec.Machines) * len(spec.Benchmarks) * len(spec.Levels))
	if stats := s.Cache.Stats(); stats.FailedStores != units || stats.Puts != 0 || stats.Misses != units {
		t.Fatalf("cache stats %s; want %d misses and %d failed stores", stats, units, units)
	}
}

// TestPrunerBuiltOncePerUnit counts pruner builds through the newPruner
// hook: a prune unit builds one, uncached, cold (the cache fill is the
// golden run only) and warm alike, and the three runs record the same
// static bounds, byte for byte.
func TestPrunerBuiltOncePerUnit(t *testing.T) {
	var builds atomic.Int64
	orig := newPruner
	t.Cleanup(func() { newPruner = orig })
	newPruner = func(a *binanalysis.Analysis, exp *faultinj.Experiment) (*binanalysis.DUEPruner, error) {
		builds.Add(1)
		return orig(a, exp)
	}
	spec := cacheSpec(t)
	units := int64(len(spec.Machines) * len(spec.Benchmarks) * len(spec.Levels))
	dir := t.TempDir()
	var want []byte
	for _, run := range []string{"uncached", "cold", "warm"} {
		builds.Store(0)
		s := spec
		if run != "uncached" {
			s.Cache = openCache(t, dir)
		}
		st, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		if got := builds.Load(); got != units {
			t.Errorf("%s run built %d pruners for %d units, want one each", run, got, units)
		}
		static, err := json.Marshal(st.Static)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(st.Static)) != units {
			t.Fatalf("%s run recorded %d static bounds for %d units", run, len(st.Static), units)
		}
		if want == nil {
			want = static
		} else if !bytes.Equal(static, want) {
			t.Errorf("%s run's static bounds differ from the uncached run's:\n%s\n%s", run, static, want)
		}
	}
}

// TestCacheKeyIsTheStruct holds the two key structs to what makes
// marshalling them a key: every field is exported and untagged, so it is
// in the JSON under its own name. The two literal keys are the format on
// disk, so a reordered, renamed or retyped field fails here where it
// would otherwise be 64 silent misses; only a version bump moves them.
func TestCacheKeyIsTheStruct(t *testing.T) {
	const machineJSON = `{"Name":"m","CPU":{"Name":"","XLEN":0,"NumArchRegs":0,"NumPhysRegs":0,"ROBSize":0,"IQSize":0,"LQSize":0,"SQSize":0,"FetchWidth":0,"IssueWidth":0,"CommitWidth":0,"WBWidth":0,"FetchQueueSize":0,"ALULat":0,"MulLat":0,"DivLat":0,"BimodalSize":0,"BTBSize":0,"RASSize":0,"StoreForwarding":false},"L1I":{"Name":"","Size":0,"Ways":0,"LineSize":0,"HitLatency":0,"AddrBits":0,"ReadOnly":false},"L1D":{"Name":"","Size":0,"Ways":0,"LineSize":0,"HitLatency":0,"AddrBits":0,"ReadOnly":false},"L2":{"Name":"","Size":0,"Ways":0,"LineSize":0,"HitLatency":0,"AddrBits":0,"ReadOnly":false},"MemLatency":0,"RawFITPerBit":0,"ClockHz":0}`
	m := machine.Config{Name: "m"}
	pc := prepConfig{Version: prepBundleVersion, Machine: m, Bench: "b", Size: 3, Source: "s", Level: "O2",
		XLEN: 32, NumRegs: 16, Traced: true, Checkpoints: 32}
	ec := expConfig{Version: prepBundleVersion, Machine: m, Name: "p", Code: []uint32{1, 2}, Entry: 4, GlobalSize: 8,
		Traced: true, Checkpoints: -1}
	for _, tc := range []struct {
		cfg       any
		key, want string
	}{
		{pc, pc.cacheKey(), "prep\x00" + `{"Version":6,"Machine":` + machineJSON + `,"Bench":"b","Size":3,"Source":"s","Level":"O2","XLEN":32,"NumRegs":16,"Traced":true,"Checkpoints":32}`},
		{ec, ec.cacheKey(), "exp\x00" + `{"Version":6,"Machine":` + machineJSON + `,"Name":"p","Code":[1,2],"Entry":4,"GlobalSize":8,"Traced":true,"Checkpoints":-1}`},
	} {
		if tc.key != tc.want {
			t.Errorf("%T key moved:\n got %q\nwant %q", tc.cfg, tc.key, tc.want)
		}
		var inKey map[string]json.RawMessage
		if err := json.Unmarshal([]byte(tc.key[strings.IndexByte(tc.key, 0)+1:]), &inKey); err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf(tc.cfg)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if _, ok := inKey[f.Name]; !ok || !f.IsExported() || f.Tag != "" {
				t.Errorf("%s.%s (tag %q) is not in the key under its own name", typ.Name(), f.Name, f.Tag)
			}
		}
	}
}

// TestCacheMissesStaleVersions proves a warm cache written under a
// previous format generation is never served, because the version is
// part of the cache key: bundles whose checkpoints are in the version-1
// flat-slab snapshot encoding miss instead of being handed to the
// chunk-table decoder, version-2 bundles with an evenly spaced ladder
// miss instead of standing in for the one a fill would record now,
// version-3 bundles, whose streams carry no halt image, miss instead of
// failing to decode (TestPreHaltImageBundleIsAMiss), and version-4
// bundles, which carry a static bound the current analysis may not
// reproduce, miss instead of putting it beside fresh pruner verdicts —
// under both key kinds that carry a stream.
func TestCacheMissesStaleVersions(t *testing.T) {
	if prepBundleVersion < 5 {
		t.Fatalf("prepBundleVersion = %d, want >= 5 (no static bound in the bundle)", prepBundleVersion)
	}
	pc := prepConfig{
		Version:     prepBundleVersion,
		Machine:     machine.CortexA15Like(),
		Bench:       "matmul",
		Size:        8,
		Source:      "int main() { return 0; }",
		Level:       "O2",
		XLEN:        64,
		NumRegs:     32,
		Traced:      true,
		Checkpoints: 4,
	}
	ec := expConfig{Version: prepBundleVersion, Machine: machine.CortexA15Like(), Name: "p", Code: []uint32{1, 2}, Checkpoints: 4}

	type staleCase struct{ name, cur, old string }
	var cases []staleCase
	for v := 1; v < prepBundleVersion; v++ {
		oldBundle, oldExp := pc, ec
		oldBundle.Version, oldExp.Version = v, v
		cases = append(cases,
			staleCase{fmt.Sprintf("bundle version %d, prep key", v), pc.cacheKey(), oldBundle.cacheKey()},
			staleCase{fmt.Sprintf("bundle version %d, experiment key", v), ec.cacheKey(), oldExp.cacheKey()})
	}
	for _, tc := range cases {
		if tc.cur == tc.old {
			t.Fatalf("%s does not feed the cache key", tc.name)
		}
		// A cache warmed exclusively under the old version's key must
		// miss for the current key (and still hit for its own, proving
		// the version is the only discriminator here).
		c := openCache(t, t.TempDir())
		if err := c.Put(tc.old, []byte("stale bundle")); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(tc.cur); ok {
			t.Fatalf("%s: current version was served a stale bundle", tc.name)
		}
		if _, ok := c.Get(tc.old); !ok {
			t.Fatalf("%s: old-version entry should still hit its own key", tc.name)
		}
		if stats := c.Stats(); stats.Misses != 1 || stats.Hits != 1 {
			t.Fatalf("%s: stats = %s, want exactly 1 miss (new key) and 1 hit (old key)", tc.name, stats)
		}
	}
}

// TestCacheSharedAcrossResume checks the satellite bugfix: a journaled
// study killed after its goldens are recorded used to re-run the full
// prep (compile + golden run) for every unit with pending
// cells. With a cache the re-prep is a pure artifact load.
func TestCacheSharedAcrossResume(t *testing.T) {
	spec := cacheSpec(t)
	baseline, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, baseline)

	dir := t.TempDir()
	s := spec
	s.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	s.Cache = openCache(t, dir)
	units := len(spec.Machines) * len(spec.Benchmarks) * len(spec.Levels)

	// The shared helper kills and resumes the journaled study until it
	// completes. Every resume re-preps units whose cells are pending —
	// the path that used to re-run the full prep — so with the cache,
	// each unit's bundle must have been *built* exactly once across all
	// attempts, no matter where the kills landed.
	st, _ := runWithRandomKills(t, s, 3)
	if !bytes.Equal(saveBytes(t, st), want) {
		t.Fatal("killed-and-resumed cached study differs from baseline")
	}
	if stats := s.Cache.Stats(); stats.Puts != uint64(units) {
		t.Fatalf("units re-prepped despite warm cache: %s (want %d puts)", stats, units)
	}
}
