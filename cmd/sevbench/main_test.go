package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateManifest = flag.Bool("update-manifest", false, "rewrite BENCHMARK.json from the metric and workload tables")

// TestMain lets the test binary stand in for the sevbench command: the
// smoke test re-executes it with SEVBENCH_BE_MAIN set, and the command's
// own children (one per workload) inherit the variable.
func TestMain(m *testing.M) {
	if os.Getenv("SEVBENCH_BE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// manifest mirrors BENCHMARK.json's exact keys.
type manifest struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []manifestWork    `json:"workloads"`
	EndToEnd   []manifestMetric  `json:"end_to_end"`
	PerLayer   []manifestLayered `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayered struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is BENCHMARK.json's run_seconds: repetitions take 4-5 s,
// so a run measures five or six of them.
const runSeconds = 25

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "cmd/sevbench/run.sh"},
		Paths:      []string{"cmd/sevbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range allWorkloads {
		m.Workloads = append(m.Workloads, manifestWork{Name: w.name, Why: w.why})
	}
	for _, d := range endToEndMetrics {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, manifestLayered{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest checks BENCHMARK.json against the command's own tables
// and against the benchmark contract's limits.
func TestManifest(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	want, err := json.MarshalIndent(wantManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *updateManifest {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and workloads.go; run go test ./cmd/sevbench -run TestManifest -update-manifest")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}

	m := wantManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRe.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRe)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEndMetrics {
		name(d.Name)
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	e2e := map[string]bool{}
	for _, d := range endToEndMetrics {
		e2e[d.Name] = true
	}
	for _, d := range perLayerMetrics {
		name(d.Name)
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		// Every layer metric says, before it is measured, what it should
		// move: an end-to-end metric on a workload, or explicitly none.
		if d.Moves == "" {
			t.Errorf("%s: does not declare which end-to-end metric and workload it should move", d.Name)
			continue
		}
		if strings.HasPrefix(d.Moves, "none") {
			continue
		}
		names := 0
		for n := range e2e {
			if strings.Contains(d.Moves, n) {
				names++
			}
		}
		if names == 0 && !strings.Contains(d.Moves, "artcache.") && !strings.Contains(d.Moves, "failed") {
			t.Errorf("%s: moves %q names no end-to-end metric", d.Name, d.Moves)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

// TestSmoke runs the one command twice at the smoke shape — all four
// workloads end to end, then the traced run of each — and checks that
// every declared metric is printed by name with its unit, that the
// output checks passed, and that each run ends with the contract's JSON
// object.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads; skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEndMetrics}, {"1", perLayerMetrics}} {
		tmp := t.TempDir()
		cmd := exec.Command(exe, "-smoke", "-trace", tc.trace, "-out", tmp)
		cmd.Env = append(os.Environ(), "SEVBENCH_BE_MAIN=1", "TMPDIR="+tmp)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("sevbench -smoke -trace %s: %v\n%s", tc.trace, err, out)
		}
		text := string(out)
		if !strings.Contains(text, "dist_warm bytes == paper_study bytes") {
			t.Errorf("trace %s: the parent did not confirm dist_warm == paper_study bytes", tc.trace)
		}
		var results []contractResult
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), `{"correct"`) {
				var r contractResult
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
					t.Fatalf("trace %s: bad result line: %v", tc.trace, err)
				}
				results = append(results, r)
			}
		}
		if len(results) != len(allWorkloads) {
			t.Fatalf("trace %s: %d result lines, want one per workload (%d)\n%s", tc.trace, len(results), len(allWorkloads), text)
		}
		for i, r := range results {
			w := allWorkloads[i].name
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("trace %s, %s: correct=%v attempted=%d failed=%d", tc.trace, w, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(tc.defs) {
				t.Errorf("trace %s, %s: %d metrics in the result, %d declared", tc.trace, w, len(r.Metrics), len(tc.defs))
			}
			for _, d := range tc.defs {
				v, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("trace %s, %s: declared metric %s missing from the result", tc.trace, w, d.Name)
				} else if v.Unit != d.Unit {
					t.Errorf("trace %s, %s: %s has unit %q, declared %q", tc.trace, w, d.Name, v.Unit, d.Unit)
				}
			}
		}
		// Printed by name with a unit, once per workload.
		for _, d := range tc.defs {
			re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.Name) + `\s+\S+ ` + regexp.QuoteMeta(d.Unit) + `$`)
			if n := len(re.FindAllString(text, -1)); n != len(allWorkloads) {
				t.Errorf("trace %s: metric %s printed with its unit %d times, want %d", tc.trace, d.Name, n, len(allWorkloads))
			}
		}
		for _, needle := range []string{"host:", "load average", "GOMAXPROCS"} {
			if !strings.Contains(text, needle) {
				t.Errorf("trace %s: output lacks the host fingerprint (%q)", tc.trace, needle)
			}
		}
		// Temp dirs live under one root and are gone afterwards; what
		// remains is what -out asked for.
		left, err := filepath.Glob(filepath.Join(tmp, "sevbench-*"))
		if err != nil || len(left) != 0 {
			t.Errorf("trace %s: temp dirs left behind: %v %v", tc.trace, left, err)
		}
	}
}
