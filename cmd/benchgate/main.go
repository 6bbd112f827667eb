// Command benchgate turns a benchmark run into a pass/fail regression
// gate. It reads `go test -bench` output on stdin, extracts one metric
// of one benchmark (ns/op unless -unit names a custom one), and
// compares it against a number recorded in a bench trajectory file
// (BENCH_cache.json / BENCH_layout.json),
// addressed by a dotted JSON path in which a number indexes an array:
//
//	go test -run '^$' -bench 'BenchmarkInjectionCell/unit' -benchtime=1x . |
//	    go run ./cmd/benchgate -baseline BENCH_layout.json -bench BenchmarkInjectionCell/unit \
//	        -unit replay-cycles/injection -metric trajectory.5.gate_limit.replay_cycles_per_injection -max-regression 1
//
//	go test -run '^$' -bench 'BenchmarkCachedStudy' -benchtime=1x . |
//	    go run ./cmd/benchgate -baseline BENCH_cache.json \
//	        -bench 'BenchmarkCachedStudy/warm' -metric per_prep.warm.ns_per_op
//
//	go test -run '^$' -bench 'BenchmarkCheckpointLadder' -benchtime=30x . |
//	    go run ./cmd/benchgate -baseline BENCH_layout.json -bench BenchmarkCheckpointLadder \
//	        -unit ns/snapshot -metric trajectory.0.after.ns_per_snapshot
//
//	go test -run '^$' -bench 'BenchmarkPrepUnit' -benchtime=10x . |
//	    go run ./cmd/benchgate -baseline BENCH_layout.json -bench BenchmarkPrepUnit \
//	        -unit prep/golden -metric trajectory.1.gate_limit.prep_over_golden -max-regression 1
//
//	go test -run '^$' -bench 'BenchmarkInjectionCell/cell' -benchtime=3x -cpu 1 . |
//	    go run ./cmd/benchgate -baseline BENCH_layout.json -bench BenchmarkInjectionCell/cell \
//	        -unit fast/reference -metric trajectory.4.gate_limit.fast_over_reference -max-regression 1
//
// The gate fails (exit 1) when the measured value exceeds the baseline
// by more than the allowed factor. For times the factor is deliberately
// loose: CI runners are noisy and -benchtime=1x is a single iteration,
// so the gate is a tripwire for order-of-magnitude regressions (a lost
// fast path, an accidental full-copy restore, a cache miss where a hit
// belongs), not a microbenchmark judge. A benchmark that reports a
// ratio of two of its own times (prep/golden, bound/golden,
// fast/reference) is gated on an absolute limit instead: the file
// records the limit and the factor is 1. -baseline, -bench and -metric
// have no defaults: a gate names what it holds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	baseline := flag.String("baseline", "", "bench trajectory file holding the recorded value (required)")
	bench := flag.String("bench", "", "benchmark name to gate on, a prefix match on the output line (required)")
	metric := flag.String("metric", "", "dotted JSON path of the baseline value inside the trajectory file (required)")
	unit := flag.String("unit", "ns/op", "unit of the benchmark output column to gate on (ns/op, or a b.ReportMetric unit such as ns/snapshot)")
	maxRegression := flag.Float64("max-regression", 2, "fail when the measured value exceeds baseline by more than this factor")
	flag.Parse()
	if *baseline == "" || *bench == "" || *metric == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline, -bench and -metric are required")
		flag.Usage()
		os.Exit(2) //lint:exit process boundary: usage error before any work started
	}

	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fatalf("read baseline: %v", err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		fatalf("parse %s: %v", *baseline, err)
	}
	base, err := metricValue(doc, *metric)
	if err != nil {
		fatalf("%s: %v", *baseline, err)
	}

	measured, err := scanMetric(os.Stdin, *bench, *unit)
	if err != nil {
		fatalf("%v", err)
	}

	ratio := measured / base
	fmt.Printf("benchgate: %s measured %v %s, baseline %v %s (%s %s), ratio %.2fx (limit %.2fx)\n",
		*bench, measured, *unit, base, *unit, *baseline, *metric, ratio, *maxRegression)
	if ratio > *maxRegression {
		fatalf("regression: %.2fx exceeds the %.2fx limit", ratio, *maxRegression)
	}
}

// metricValue walks a decoded JSON document by a dotted path
// ("per_prep.warm.ns_per_op", "trajectory.0.after.ns_per_snapshot")
// and returns the positive number at the end of it.
func metricValue(doc any, path string) (float64, error) {
	cur := doc
	for _, part := range strings.Split(path, ".") {
		switch node := cur.(type) {
		case map[string]any:
			next, ok := node[part]
			if !ok {
				return 0, fmt.Errorf("metric %s: no field %q", path, part)
			}
			cur = next
		case []any:
			i, err := strconv.Atoi(part)
			if err != nil || i < 0 || i >= len(node) {
				return 0, fmt.Errorf("metric %s: %q does not index an array of %d", path, part, len(node))
			}
			cur = node[i]
		default:
			return 0, fmt.Errorf("metric %s: %q is not inside an object or array", path, part)
		}
	}
	v, ok := cur.(float64)
	if !ok {
		return 0, fmt.Errorf("metric %s: not a number", path)
	}
	if v <= 0 {
		return 0, fmt.Errorf("metric %s: %v is not a positive baseline", path, v)
	}
	return v, nil
}

// scanMetric echoes stdin through (so the CI log keeps the full
// benchmark output) and returns the value printed before unit on the
// first line naming the benchmark. Benchmark output lines look like:
//
//	BenchmarkInjectionCell/fastpath-8    3594    577754 ns/op    8 B/op ...
func scanMetric(r *os.File, bench, unit string) (float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	found := -1.0
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if found >= 0 || !strings.HasPrefix(line, bench) {
			continue
		}
		fields := strings.Fields(line)
		for i := 2; i < len(fields); i++ {
			if fields[i] == unit {
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return 0, fmt.Errorf("parse %s on %q: %v", unit, line, err)
				}
				found = v
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read benchmark output: %v", err)
	}
	if found < 0 {
		return 0, fmt.Errorf("no %q line with a %s value in benchmark output", bench, unit)
	}
	return found, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1) //lint:exit CLI gate verdict; nothing is open to clean up
}
