// Command sevbench is the repository's benchmark: four study-shaped
// workloads, end-to-end metrics measured with tracing off, and one
// traced run per workload that yields the per-layer numbers. It
// measures the layers from outside, by timing calls into their public
// functions; it changes no other package.
//
//	go run ./cmd/sevbench                      # all four workloads, each in a fresh child process
//	go run ./cmd/sevbench -trace 1             # the traced run of each
//	go run ./cmd/sevbench -workload deep_cells -seed 7 -seconds 25 -trace 0
//
// A run with -workload prints every metric by name with its unit and
// ends with one JSON object (correct, attempted, failed, metrics), the
// form BENCHMARK.json's driver reads. See README.md beside this file.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	update   bool
	out      string
}

func main() {
	start := now()
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all four, each in a fresh child process)")
	flag.Int64Var(&o.seed, "seed", refSeed, "the only input knob: feeds Spec.Seed and the traced run's sampling seeds")
	flag.Float64Var(&o.seconds, "seconds", 25, "repeat the study for this much measured time, give or take half a repetition (never fewer than 3 repetitions)")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run that yields the per-layer metrics; 0: the end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "TestSize inputs, 1 fault per cell, 1 repetition: every workload in seconds")
	flag.BoolVar(&o.update, "update", false, "rewrite testdata/<workload>.ref from this run (seed 2021, not -smoke)")
	flag.StringVar(&o.out, "out", "", "directory for the run set's JSON (all-workload mode) or the span NDJSON (-trace 1)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sevbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2) //lint:exit process boundary: usage error before any work started
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, o, start)
	stop()
	os.Exit(code) //lint:exit process boundary: run has returned, so its deferred temp-dir removal is done
}

func run(ctx context.Context, o options, start time.Time) int {
	if o.workload == "" {
		return runAll(ctx, o)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "sevbench: unknown workload %q\n", o.workload)
		return 2
	}
	root, err := os.MkdirTemp("", "sevbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sevbench:", err)
		return 1
	}
	defer os.RemoveAll(root)

	e := &env{ctx: ctx, start: start, root: root, seed: o.seed, smoke: o.smoke,
		minReps: 3, seconds: o.seconds, p: parallelism()}
	if o.smoke {
		e.minReps, e.seconds = 1, 0
	}
	if o.trace != 0 {
		return e.reportTraced(w, o)
	}
	return e.reportUntraced(w, o)
}

// reportUntraced runs the end-to-end measurement and prints it.
//
// The two times are those of the run's fastest repetition. On this kind
// of host — a few cores of a shared machine — the noise is one-sided and
// comes in phases: for minutes at a time repetitions take 10-40% longer,
// all of it user time, while a register-only loop timed between them
// slows by 3% (so it is the shared cache and memory, not the clock), and
// inside such a phase single repetitions still run at full speed. Over
// six repetitions the fastest then spreads by 13% from run to run where
// the median spreads by 20% and the median of three by 26%
// (results/series_paper_study.txt). Median, slowest and count are
// printed beside it.
func (e *env) reportUntraced(w workload, o options) int {
	res, err := e.runUntraced(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sevbench:", err)
		return 1
	}
	if o.update {
		if err := e.updateRef(w, res.study); err != nil {
			fmt.Fprintln(os.Stderr, "sevbench:", err)
			return 1
		}
	}
	n := len(res.Reps)
	walls, cpus, peaks := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, r := range res.Reps {
		walls[i], cpus[i], peaks[i] = r.WallS, r.CPUS, r.PeakRSS
	}
	m := metricSet{
		"study_wall_s":       slices.Min(walls),
		"cpu_s":              slices.Min(cpus),
		"setup_s":            res.SetupS,
		"peak_rss_mb":        median(peaks),
		"avf_ci99_halfwidth": res.HalfW,
	}
	res.Metrics = m

	fmt.Printf("sevbench %s: end-to-end, tracing off\n", w.name)
	printHost(res.Host, e)
	fmt.Printf("  study: %d cells, %d injections per repetition, closed loop, %d worker threads\n", res.Cells, res.Faults, e.p)
	for i, r := range res.Reps {
		fmt.Printf("  repetition %d: wall %.4f s, cpu %.4f s, peak rss %.1f MB, study_sha256 %s\n", i+1, r.WallS, r.CPUS, r.PeakRSS, r.SHA)
	}
	fmt.Printf("  set-up passes: %.4f s (setup_s is their median)\n", res.Setups)
	fmt.Printf("  study_wall_s spread: %s\n", spread(walls))
	fmt.Printf("  cpu_s spread:        %s\n", spread(cpus))
	m.render(endToEndMetrics)
	fmt.Printf("  %-34s %16.6g %s\n", "failed_share", float64(res.Failed)/float64(res.Cells), "fraction")
	fmt.Printf("  %-34s %16d %s (informational)\n", "ref_drift_cells", e.refDrift(w, res.study), "count")
	fmt.Printf("  study_sha256 %s\n", res.SHA)
	for _, p := range res.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	return finish(res, contractResult{
		Correct:   res.Failed == 0,
		Attempted: res.Cells,
		Failed:    res.Failed,
		Metrics:   m.contractMetrics(endToEndMetrics),
	})
}

func printHost(h hostInfo, e *env) {
	fmt.Printf("  host: %s, nproc %d, P %d, GOMAXPROCS %d, %s, commit %s\n", h.CPUModel, h.NumCPU, h.P, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Printf("  seed %d, load average at start %s, at end %s\n", e.seed, h.LoadStart, h.LoadEnd)
}

// finish prints the detail line the all-workload mode collects and the
// contract line the driver reads, and turns failures into the exit code
// — after every metric was printed.
func finish(detail any, c contractResult) int {
	d, err := json.Marshal(detail)
	if err == nil {
		fmt.Printf("detail %s\n", d)
	}
	line, err := json.Marshal(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sevbench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !c.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process (a re-exec of
// this binary), so peak_rss_mb and setup_s are per workload, relays
// their output, and cross-checks what only the parent can: dist_warm's
// merged bytes must equal paper_study's.
func runAll(ctx context.Context, o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sevbench:", err)
		return 1
	}
	set := runSet{Seed: o.seed, Trace: o.trace, Smoke: o.smoke, Host: fingerprint()}
	code := 0
	shas := map[string]string{}
	for _, w := range allWorkloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace)}
		if o.smoke {
			args = append(args, "-smoke")
		}
		if o.update {
			args = append(args, "-update")
		}
		if o.out != "" && o.trace != 0 {
			args = append(args, "-out", o.out)
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "sevbench: %s: %v\n", w.name, err)
			code = 1
		}
		detail, sha := parseChild(&buf)
		if detail != nil {
			set.Workloads = append(set.Workloads, detail)
		}
		shas[w.name] = sha
		fmt.Println()
	}
	if a, b := shas["paper_study"], shas["dist_warm"]; a != b {
		fmt.Printf("FAILED: dist_warm study_sha256 %s differs from paper_study's %s: every dist_warm cell fails\n", b, a)
		set.Problems = append(set.Problems, "dist_warm bytes differ from paper_study bytes")
		code = 1
	} else {
		fmt.Printf("dist_warm bytes == paper_study bytes (study_sha256 %s)\n", a)
	}
	set.Host.LoadEnd = loadAvg()
	if o.out != "" {
		if err := set.write(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "sevbench:", err)
			code = 1
		}
	}
	return code
}

// runSet is one complete set of runs, the unit committed under
// results/.
type runSet struct {
	Seed      int64
	Trace     int
	Smoke     bool
	Host      hostInfo
	Workloads []json.RawMessage
	Problems  []string `json:",omitempty"`
}

func (s runSet) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := "end_to_end.json"
	if s.Trace != 0 {
		name = "per_layer.json"
	}
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// parseChild pulls the detail line out of a child's output.
func parseChild(out *bytes.Buffer) (detail json.RawMessage, sha string) {
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "detail "); ok {
			detail = json.RawMessage(append([]byte(nil), rest...))
			var d struct{ SHA string }
			if json.Unmarshal(detail, &d) == nil {
				sha = d.SHA
			}
		}
	}
	return detail, sha
}
