package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// tinySpec builds a fast study for tests: both machines, two
// benchmarks at test scale, two levels, three structure fields.
func tinySpec(t testing.TB) Spec {
	t.Helper()
	qsort, err := workloads.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	gsm, err := workloads.ByName("gsm")
	if err != nil {
		t.Fatal(err)
	}
	rf, _ := faultinj.TargetByName("RF")
	robPC, _ := faultinj.TargetByName("ROB.pc")
	l1d, _ := faultinj.TargetByName("L1D.data")
	return Spec{
		Machines:   machine.Configs(),
		Benchmarks: []workloads.Benchmark{qsort, gsm},
		Levels:     []compiler.OptLevel{compiler.O0, compiler.O2},
		Targets:    []faultinj.Target{rf, robPC, l1d},
		Faults:     24,
		Seed:       7,
		Size:       func(b workloads.Benchmark) int { return b.TestSize },
	}
}

func TestStudyEndToEnd(t *testing.T) {
	st, err := tinySpec(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	// 2 machines x 2 benches x 2 levels x 3 targets cells.
	if len(st.Results) != 2*2*2*3 {
		t.Fatalf("got %d results, want 24", len(st.Results))
	}
	if len(st.Goldens) != 2*2*2 {
		t.Fatalf("got %d goldens, want 8", len(st.Goldens))
	}
	for _, r := range st.Results {
		if r.Faults != 24 {
			t.Errorf("cell %s/%s/%s/%s has %d faults", r.March, r.Bench, r.Level, r.Target, r.Faults)
		}
		if r.Counts.Total() != r.Faults {
			t.Errorf("cell %s counts %d != faults %d", r.Target, r.Counts.Total(), r.Faults)
		}
		if r.Counts.Unexpected != 0 {
			t.Errorf("cell %s/%s/%s/%s had %d unexpected panics",
				r.March, r.Bench, r.Level, r.Target, r.Counts.Unexpected)
		}
		if r.StructBits == 0 {
			t.Errorf("cell %s has zero structure bits", r.Target)
		}
	}
	// O2 must be faster than O0 in the golden runs.
	for _, march := range st.MachineNames {
		for _, bench := range st.BenchNames {
			g0, ok0 := st.Golden(march, bench, "O0")
			g2, ok2 := st.Golden(march, bench, "O2")
			if !ok0 || !ok2 {
				t.Fatalf("missing goldens for %s/%s", march, bench)
			}
			if g2.Cycles >= g0.Cycles {
				t.Errorf("%s/%s: O2 (%d) not faster than O0 (%d)", march, bench, g2.Cycles, g0.Cycles)
			}
			if g0.AvgPRFLive <= 0 || g0.AvgROBOcc <= 0 {
				t.Errorf("%s/%s: occupancy stats empty", march, bench)
			}
		}
	}
}

func TestStudyDeterminism(t *testing.T) {
	spec := tinySpec(t)
	spec.Benchmarks = spec.Benchmarks[:1]
	spec.Machines = spec.Machines[:1]
	a, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("result %d differs between runs:\n%+v\n%+v", i, a.Results[i], b.Results[i])
		}
	}
}

// TestSchedulerDeterminismAcrossParallelism asserts the parallel
// scheduler's core guarantee: any Parallelism setting produces the
// exact result set of the serial (Parallelism: 1) run — same goldens,
// same per-cell counts, same order — so saved studies are
// byte-identical.
func TestSchedulerDeterminismAcrossParallelism(t *testing.T) {
	spec := tinySpec(t)
	spec.Machines = spec.Machines[:1]
	spec.Benchmarks = spec.Benchmarks[:1]
	spec.Parallelism = 1
	base, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{8} {
		par := par
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			spec := spec
			spec.Parallelism = par
			st, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Results) != len(base.Results) {
				t.Fatalf("got %d results, want %d", len(st.Results), len(base.Results))
			}
			for i := range base.Results {
				if st.Results[i] != base.Results[i] {
					t.Errorf("result %d differs from serial run:\n%+v\n%+v",
						i, st.Results[i], base.Results[i])
				}
			}
			for i := range base.Goldens {
				if st.Goldens[i] != base.Goldens[i] {
					t.Errorf("golden %d differs from serial run", i)
				}
			}
			j, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j, baseJSON) {
				t.Error("saved study JSON not byte-identical to serial run")
			}
		})
	}
}

func TestStudySaveLoad(t *testing.T) {
	spec := tinySpec(t)
	spec.Machines = spec.Machines[:1]
	spec.Benchmarks = spec.Benchmarks[:1]
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "study.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Results) != len(st.Results) {
		t.Fatalf("loaded %d results, want %d", len(loaded.Results), len(st.Results))
	}
	if loaded.Results[0] != st.Results[0] {
		t.Error("loaded result differs")
	}
	if _, ok := loaded.Golden(st.MachineNames[0], st.BenchNames[0], "O0"); !ok {
		t.Error("loaded golden missing")
	}
}

func TestAccessors(t *testing.T) {
	spec := tinySpec(t)
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	across := st.AcrossBenches(st.MachineNames[0], "O0", "RF")
	if len(across) != len(st.BenchNames) {
		t.Errorf("AcrossBenches returned %d, want %d", len(across), len(st.BenchNames))
	}
	cell := st.CellStructures(st.MachineNames[0], st.BenchNames[0], "O2")
	if len(cell) != len(st.TargetNames) {
		t.Errorf("CellStructures returned %d, want %d", len(cell), len(st.TargetNames))
	}
	if _, ok := st.Result("nope", "x", "y", "z"); ok {
		t.Error("bogus cell resolved")
	}
	if _, ok := MachineConfig("Cortex-A15-like"); !ok {
		t.Error("machine config lookup failed")
	}
}

func TestDefaultSpecShape(t *testing.T) {
	spec := DefaultSpec(2000)
	if len(spec.Machines) != 2 || len(spec.Benchmarks) != 8 ||
		len(spec.Levels) != 4 || len(spec.Targets) != 15 {
		t.Fatalf("default spec shape: %d machines %d benches %d levels %d targets",
			len(spec.Machines), len(spec.Benchmarks), len(spec.Levels), len(spec.Targets))
	}
	if spec.Faults != 2000 {
		t.Errorf("faults = %d", spec.Faults)
	}
	// The paper's full campaign: 2 marchs x 8 benches x 4 levels x 15
	// fields x 2000 faults = 1,920,000 injections.
	total := len(spec.Machines) * len(spec.Benchmarks) * len(spec.Levels) * len(spec.Targets) * spec.Faults
	if total != 1_920_000 {
		t.Errorf("full campaign = %d injections, want 1,920,000", total)
	}
}

func TestProgressCallback(t *testing.T) {
	spec := tinySpec(t)
	spec.Machines = spec.Machines[:1]
	spec.Benchmarks = spec.Benchmarks[:1]
	spec.Levels = spec.Levels[:1]
	spec.Targets = spec.Targets[:1]
	var buf bytes.Buffer
	spec.Progress = func(format string, args ...any) {
		buf.WriteString(format)
	}
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no progress reported")
	}
}

// FuzzLoadStudy feeds Load arbitrary bytes as study.json, seeded with
// files Save wrote for real studies (with and without static bounds)
// and cut-short copies of them. Load must fail, or return a study that
// saves to bytes Load and Save reproduce exactly, and whose accessors
// answer for every record it holds without a panic.
func FuzzLoadStudy(f *testing.F) {
	dir := f.TempDir()
	for i, prune := range []bool{false, true} {
		spec := tinySpec(f)
		spec.Faults, spec.Prune = 2, prune
		st, err := spec.Run()
		if err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("seed%d.json", i))
		if err := st.Save(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "study.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(path)
		if err != nil {
			return
		}
		var saved [2][]byte
		for i := range saved {
			out := filepath.Join(dir, fmt.Sprintf("saved%d.json", i))
			if err := st.Save(out); err != nil {
				t.Fatalf("save %d: %v", i, err)
			}
			if saved[i], err = os.ReadFile(out); err != nil {
				t.Fatal(err)
			}
			if st, err = Load(out); err != nil {
				t.Fatalf("load of saved %d: %v", i, err)
			}
		}
		if !bytes.Equal(saved[0], saved[1]) {
			t.Fatalf("save, load, save is not a fixed point:\n%s\n%s", saved[0], saved[1])
		}
		for _, g := range st.Goldens {
			if _, ok := st.Golden(g.March, g.Bench, g.Level); !ok {
				t.Fatalf("golden %s/%s/%s not found", g.March, g.Bench, g.Level)
			}
		}
		for i, r := range st.Results {
			if _, ok := st.Result(r.March, r.Bench, r.Level, r.Target); !ok {
				t.Fatalf("result %s/%s/%s/%s not found", r.March, r.Bench, r.Level, r.Target)
			}
			if i < 64 { // the aggregations scan the name lists; a few calls reach them
				st.AcrossBenches(r.March, r.Level, r.Target)
				st.CellStructures(r.March, r.Bench, r.Level)
			}
		}
		for _, s := range st.Static {
			if _, ok := st.StaticFor(s.March, s.Bench, s.Level); !ok {
				t.Fatalf("static bound %s/%s/%s not found", s.March, s.Bench, s.Level)
			}
		}
	})
}
