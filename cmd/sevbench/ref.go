package main

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sevsim/internal/campaign"
	"sevsim/internal/core"
)

// refSeed is the seed the testdata/*.ref files were recorded at.
const refSeed = 2021

//go:embed testdata/*.ref
var refFiles embed.FS

// refLine pins one cell: its outcome counts (a function of the seed)
// and its golden cycle count (a function of the simulated machine
// alone).
func refLine(r campaign.Result) (key, counts, cycles string) {
	key = core.CellRef{March: r.March, Bench: r.Bench, Level: r.Level, Target: r.Target}.Key()
	c := r.Counts
	return key,
		fmt.Sprintf("%d %d %d %d %d", c.Masked, c.SDC, c.Crash, c.Timeout, c.Assert),
		fmt.Sprint(r.GoldenCycles)
}

// refDrift counts the cells whose simulated statistics left the pinned
// reference: golden cycles at any seed, outcome counts at the reference
// seed. It is informational — a sampling or model change may move it on
// purpose — but the reviewer of a "speed-only" PR reads 0 as "simulated
// statistics unchanged". Smoke runs use other input sizes and are not
// compared.
func (e *env) refDrift(w workload, st *core.Study) int {
	if e.smoke {
		return 0
	}
	data, err := refFiles.ReadFile("testdata/" + w.ref + ".ref")
	if err != nil {
		return len(st.Results)
	}
	type pinned struct{ counts, cycles string }
	ref := map[string]pinned{}
	for _, line := range strings.Split(string(data), "\n") {
		if key, rest, ok := strings.Cut(line, "\t"); ok {
			counts, cycles, _ := strings.Cut(rest, "\t")
			ref[key] = pinned{counts, cycles}
		}
	}
	drift := 0
	for _, r := range st.Results {
		key, counts, cycles := refLine(r)
		p, ok := ref[key]
		if !ok || p.cycles != cycles || (e.seed == refSeed && p.counts != counts) {
			drift++
		}
	}
	return drift
}

// updateRef rewrites the workload's reference file in the source tree.
func (e *env) updateRef(w workload, st *core.Study) error {
	if e.smoke || e.seed != refSeed {
		return fmt.Errorf("-update records testdata at seed %d and full size only", refSeed)
	}
	dir := filepath.Join("cmd", "sevbench", "testdata")
	if _, err := os.Stat(dir); err != nil {
		dir = "testdata" // run from the package directory
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s at seed %d: cell, then masked sdc crash timeout assert, then golden cycles\n", w.ref, refSeed)
	for _, r := range st.Results {
		key, counts, cycles := refLine(r)
		fmt.Fprintf(&b, "%s\t%s\t%s\n", key, counts, cycles)
	}
	return os.WriteFile(filepath.Join(dir, w.ref+".ref"), []byte(b.String()), 0o644)
}
