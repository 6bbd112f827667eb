package main

import (
	"fmt"
	"slices"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json is
// checked against these tables by the package's tests, so the manifest
// and the command cannot drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// Bound (end-to-end metrics only) is the share of the parent's
	// median by which the metric may worsen before a PR is rejected.
	Bound float64

	// Moves (per-layer metrics only) states, before anything is
	// measured, which end-to-end metric on which workload this layer
	// metric should move. "none" marks a tripwire or an exact count
	// that a speed-only PR must leave identical.
	Moves string
}

// endToEndMetrics are what a user of the system sees, measured with
// tracing off.
//
// Bounds are set from measured spreads (PROFILE.md), not from wishes:
// ISSUE 11 asked for 10% on the two times, but on the reference host
// memory-heavy code slows by 10-40% for minutes at a time; with the
// fastest of a run's five or six repetitions reported, ten runs of one
// workload still spread by 4-9% of their median and two ten-run medians
// of the same commit differ by up to 14%, so a 10% bound would reject
// the benchmark against itself. peak_rss_mb repeats within 5%.
// avf_ci99_halfwidth is exact for a seed; its 1% bound only absorbs the
// movement of the widest cell from one seed to the next.
//
// ISSUE 11 also names failed_share. It is always 0 on a healthy tree,
// and the benchmark contract forbids metrics that read 0 and carries
// failures in the result's attempted/failed fields instead, so the
// command prints failed_share but the manifest does not list it.
var endToEndMetrics = []metricDef{
	{Name: "study_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "avf_ci99_halfwidth", Unit: "fraction", Better: "lower", Bound: 0.01},
}

const (
	everywhere = "study_wall_s and cpu_s on all four workloads"
	cold       = "study_wall_s on paper_study and dist_warm"
	prepOnly   = "study_wall_s on prep_sweep; setup_s on all"
	exact      = "none: exact count, a speed-only PR must leave it identical"
)

// perLayerMetrics come from the traced run; layer = module name. A
// value of 0 means the workload does not exercise the layer (the pruner
// with Prune off, dispatch.overhead_s outside dist_warm).
var perLayerMetrics = []metricDef{
	{Name: "compiler.compile_ms.O0", Unit: "ms", Better: "lower", Moves: "study_wall_s on prep_sweep, marginally"},
	{Name: "compiler.compile_ms.O1", Unit: "ms", Better: "lower", Moves: "study_wall_s on prep_sweep, marginally"},
	{Name: "compiler.compile_ms.O2", Unit: "ms", Better: "lower", Moves: "study_wall_s on prep_sweep, marginally"},
	{Name: "compiler.compile_ms.O3", Unit: "ms", Better: "lower", Moves: "study_wall_s on prep_sweep, marginally"},
	{Name: "compiler.code_words", Unit: "count", Better: "lower", Moves: exact},

	{Name: "interp.run_ms", Unit: "ms", Better: "lower", Moves: "none: the oracle runs only in the traced run"},
	{Name: "interp.mismatches", Unit: "count", Better: "lower", Moves: "failed cells of the traced run; must be 0"},

	{Name: "machine.golden_ms", Unit: "ms", Better: "lower", Moves: prepOnly},
	{Name: "machine.golden_cycles", Unit: "count", Better: "lower", Moves: exact},
	{Name: "machine.sim_mcycles_per_s", Unit: "Mcycles/s", Better: "higher", Moves: everywhere},
	{Name: "machine.ipc_mean", Unit: "ipc", Better: "higher", Moves: exact},
	{Name: "machine.new_us", Unit: "us", Better: "lower", Moves: "study_wall_s on paper_study and dist_warm (one scratch machine per cold injection)"},
	{Name: "machine.snapshot_us", Unit: "us", Better: "lower", Moves: "study_wall_s on prep_sweep; peak_rss_mb everywhere through snapshot size"},
	{Name: "machine.restore_full_us", Unit: "us", Better: "lower", Moves: cold},
	{Name: "machine.restore_delta_us", Unit: "us", Better: "lower", Moves: "study_wall_s on deep_cells"},

	{Name: "checkpoint.record_ms", Unit: "ms", Better: "lower", Moves: prepOnly},
	{Name: "checkpoint.stream_kb", Unit: "KB", Better: "lower", Moves: "peak_rss_mb everywhere; artcache.entry_kb"},

	{Name: "faultinj.prep_ms", Unit: "ms", Better: "lower", Moves: prepOnly},
	{Name: "faultinj.sample_us", Unit: "us", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.rf", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.rob", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.iq", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.lsq", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.l1i", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.l1d", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.l2", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_p95_ms", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.masked", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.sdc", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.crash", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.timeout", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_ms.assert", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.outcomes.masked", Unit: "count", Better: "higher", Moves: exact},
	{Name: "faultinj.outcomes.sdc", Unit: "count", Better: "lower", Moves: exact},
	{Name: "faultinj.outcomes.crash", Unit: "count", Better: "lower", Moves: exact},
	{Name: "faultinj.outcomes.timeout", Unit: "count", Better: "lower", Moves: exact},
	{Name: "faultinj.outcomes.assert", Unit: "count", Better: "lower", Moves: exact},
	{Name: "faultinj.inject_first_ms", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "faultinj.inject_next_ms", Unit: "ms", Better: "lower", Moves: "study_wall_s on deep_cells"},
	{Name: "faultinj.preflip_cycles_mean", Unit: "cycles", Better: "lower", Moves: "none: exact; the work a golden-trace replay prefix would remove"},
	{Name: "faultinj.postflip_cycles_mean", Unit: "cycles", Better: "lower", Moves: "none: exact; over non-Masked results only"},

	{Name: "campaign.cell_ms", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "campaign.overhead_us_per_cell", Unit: "us", Better: "lower", Moves: "study_wall_s on paper_study and dist_warm (960 cells), not deep_cells (120)"},
	{Name: "campaign.injections_per_s", Unit: "1/s", Better: "higher", Moves: "none: derived from study_wall_s; a PR may lower the injection count"},

	{Name: "binanalysis.analyze_ms", Unit: "ms", Better: "lower", Moves: "study_wall_s and peak_rss_mb on prep_sweep"},
	{Name: "binanalysis.pruner_build_ms", Unit: "ms", Better: "lower", Moves: "study_wall_s and peak_rss_mb on prep_sweep"},
	{Name: "binanalysis.bound_ms", Unit: "ms", Better: "lower", Moves: "study_wall_s on prep_sweep (the static-bound pass over the commit trace)"},
	{Name: "binanalysis.query_ns", Unit: "ns", Better: "lower", Moves: "study_wall_s on deep_cells"},
	{Name: "binanalysis.pruned_share", Unit: "fraction", Better: "higher", Moves: "study_wall_s on deep_cells"},
	{Name: "binanalysis.pruned.reg", Unit: "count", Better: "higher", Moves: exact},
	{Name: "binanalysis.pruned.bit", Unit: "count", Better: "higher", Moves: exact},
	{Name: "binanalysis.pruned.due", Unit: "count", Better: "higher", Moves: exact},

	{Name: "core.parallel_efficiency", Unit: "fraction", Better: "higher", Moves: "study_wall_s everywhere, without moving cpu_s"},
	{Name: "core.sched_overhead_s", Unit: "s", Better: "lower", Moves: "study_wall_s everywhere, without moving cpu_s"},
	{Name: "core.assemble_ms", Unit: "ms", Better: "lower", Moves: "study_wall_s on dist_warm"},
	{Name: "core.save_ms", Unit: "ms", Better: "lower", Moves: "study_wall_s everywhere, marginally"},
	{Name: "core.load_ms", Unit: "ms", Better: "lower", Moves: "none: loading is outside the timed region"},
	{Name: "core.cached_prep_cold_ms", Unit: "ms", Better: "lower", Moves: "setup_s on dist_warm"},
	{Name: "core.cached_prep_warm_ms", Unit: "ms", Better: "lower", Moves: "study_wall_s on dist_warm"},

	{Name: "journal.append_us", Unit: "us", Better: "lower", Moves: cold},
	{Name: "journal.append_p95_us", Unit: "us", Better: "lower", Moves: cold},
	{Name: "journal.scan_ms", Unit: "ms", Better: "lower", Moves: "none: replay happens only on resume"},
	{Name: "journal.bytes", Unit: "count", Better: "lower", Moves: exact},

	{Name: "artcache.put_ms", Unit: "ms", Better: "lower", Moves: "setup_s on dist_warm"},
	{Name: "artcache.get_ms", Unit: "ms", Better: "lower", Moves: "study_wall_s on dist_warm"},
	{Name: "artcache.entry_kb", Unit: "KB", Better: "lower", Moves: "artcache.get_ms, artcache.put_ms"},
	{Name: "artcache.hits", Unit: "count", Better: "higher", Moves: exact},
	{Name: "artcache.misses", Unit: "count", Better: "lower", Moves: exact},

	{Name: "dispatch.submit_ms", Unit: "ms", Better: "lower", Moves: "study_wall_s on dist_warm"},
	{Name: "dispatch.lease_rtt_us", Unit: "us", Better: "lower", Moves: "study_wall_s on dist_warm"},
	{Name: "dispatch.complete_rtt_us", Unit: "us", Better: "lower", Moves: "study_wall_s on dist_warm"},
	{Name: "dispatch.leases", Unit: "count", Better: "lower", Moves: exact},
	{Name: "dispatch.overhead_s", Unit: "s", Better: "lower", Moves: "study_wall_s on dist_warm only"},

	{Name: "report.render_ms", Unit: "ms", Better: "lower", Moves: "none: a tripwire"},

	{Name: "trace.coverage", Unit: "fraction", Better: "higher", Moves: "none: outside 0.8-1.1 a layer is unaccounted for"},
	{Name: "trace.overhead_share", Unit: "fraction", Better: "lower", Moves: "none: the cost of measuring from outside"},

	{Name: "ref_drift_cells", Unit: "count", Better: "lower", Moves: "none: cells whose counts or golden cycles left testdata/*.ref"},
}

// metricSet is the values of one run, by metric name.
type metricSet map[string]float64

// render prints every declared metric by name with its unit, and
// reports the names that have no value.
func (m metricSet) render(defs []metricDef) (missing []string) {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	return missing
}

// contractMetrics shapes the values as the benchmark contract's
// "metrics" object.
func (m metricSet) contractMetrics(defs []metricDef) map[string]contractValue {
	out := make(map[string]contractValue, len(defs))
	for _, d := range defs {
		out[d.Name] = contractValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the last line of a workload run's standard output.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread prints a run's repetitions: the fastest, which is reported,
// with the median and the slowest beside it.
func spread(xs []float64) string {
	return fmt.Sprintf("min %.4f (reported), median %.4f, max %.4f, n=%d", slices.Min(xs), median(xs), slices.Max(xs), len(xs))
}
