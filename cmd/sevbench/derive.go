package main

import (
	"time"

	"sevsim/internal/faultinj"
)

// profileRow is one line of "where a study's CPU time goes".
type profileRow struct {
	Name    string
	Seconds float64 // scaled to the whole study
	Share   float64 // of the untraced repetition's cpu_s
}

// Spans whose work a study also does, split by what it scales with: the
// per-unit ones are scaled from the traced units to all units, the
// per-cell ones from the traced cells to all cells, both by golden
// cycles. Every other span (the oracle, the direct golden and recording
// passes that faultinj.prep repeats, the probes) is measurement only.
var (
	unitSpans = []string{"compiler.compile.O0", "compiler.compile.O1", "compiler.compile.O2", "compiler.compile.O3",
		"faultinj.prep", "binanalysis.analyze", "binanalysis.pruner_build", "binanalysis.bound"}
	cellSpans = []string{"campaign.cell", "faultinj.sample", "binanalysis.query", "faultinj.inject"}
)

// metrics turns spans and counters into the per-layer metric set and
// the profile table. u is the untraced reference repetition.
func (d *driver) metrics(u studyOut, distOverhead float64, p layerProbes) (metricSet, []profileRow) {
	by := d.tr.byName()
	get := func(name string) *layerTime {
		if lt := by[name]; lt != nil {
			return lt
		}
		return &layerTime{}
	}
	perCall := func(name string, unit time.Duration) float64 { // median duration of one call
		each := get(name).each
		if len(each) == 0 {
			return 0
		}
		return median(each) * float64(time.Second) / float64(unit)
	}
	ms := func(name string) float64 { return perCall(name, time.Millisecond) }
	us := func(name string) float64 { return perCall(name, time.Microsecond) }
	selfS := func(name string) float64 { return seconds(get(name).Self) }

	m := metricSet{}
	nu := float64(max(len(d.units), 1))

	for _, level := range []string{"O0", "O1", "O2", "O3"} {
		m["compiler.compile_ms."+level] = ms("compiler.compile." + level)
	}
	m["compiler.code_words"] = float64(d.codeWords)
	m["interp.run_ms"] = ms("interp.run")
	m["interp.mismatches"] = float64(d.mismatches)

	golden := get("machine.golden")
	m["machine.golden_ms"] = ms("machine.golden")
	m["machine.golden_cycles"] = float64(d.goldenCycles)
	if s := seconds(golden.Total); s > 0 {
		m["machine.sim_mcycles_per_s"] = float64(d.goldenCycles) / s / 1e6
	}
	m["machine.ipc_mean"] = d.ipcSum / nu
	m["machine.new_us"] = us("machine.new")
	m["machine.snapshot_us"] = us("machine.snapshot")
	m["machine.restore_full_us"] = us("machine.restore_full")
	m["machine.restore_delta_us"] = us("machine.restore_delta")
	m["checkpoint.record_ms"] = ms("checkpoint.record")
	m["checkpoint.stream_kb"] = float64(d.streamBytes) / 1024 / nu

	m["faultinj.prep_ms"] = ms("faultinj.prep")
	m["faultinj.sample_us"] = us("faultinj.sample")
	inject := get("faultinj.inject")
	for i, fam := range families {
		m["faultinj.inject_ms."+fam] = mean(d.injectByFamily[i]) * 1e3
	}
	for i, o := range outcomeNames {
		m["faultinj.inject_ms."+o] = mean(d.injectByOutcome[i]) * 1e3
		m["faultinj.outcomes."+o] = float64(d.outcomes[i])
	}
	m["faultinj.inject_p95_ms"] = percentile(inject.each, 0.95) * 1e3
	m["faultinj.inject_first_ms"] = mean(d.injectFirst) * 1e3
	m["faultinj.inject_next_ms"] = mean(d.injectNext) * 1e3
	m["faultinj.preflip_cycles_mean"] = mean(d.preflip)
	m["faultinj.postflip_cycles_mean"] = mean(d.postflip)

	m["campaign.cell_ms"] = ms("campaign.run")
	m["campaign.overhead_us_per_cell"] = us("campaign.overhead")
	injections := len(u.st.Results) * d.spec.Faults
	m["campaign.injections_per_s"] = float64(injections) / seconds(u.wall)

	m["binanalysis.analyze_ms"] = ms("binanalysis.analyze")
	m["binanalysis.pruner_build_ms"] = ms("binanalysis.pruner_build")
	m["binanalysis.bound_ms"] = ms("binanalysis.bound")
	m["binanalysis.query_ns"] = perCall("binanalysis.query", time.Nanosecond)
	useful := d.pruned[faultinj.PruneReg] + d.pruned[faultinj.PruneBit] + d.pruned[faultinj.PruneDUE]
	m["binanalysis.pruned_share"] = float64(useful) / float64(max(d.queries, 1))
	m["binanalysis.pruned.reg"] = float64(d.pruned[faultinj.PruneReg])
	m["binanalysis.pruned.bit"] = float64(d.pruned[faultinj.PruneBit])
	m["binanalysis.pruned.due"] = float64(d.pruned[faultinj.PruneDUE])

	m["core.assemble_ms"] = ms("core.assemble")
	m["core.save_ms"] = ms("core.save")
	m["core.load_ms"] = ms("core.load")
	m["core.cached_prep_cold_ms"] = ms("core.cached_prep_cold")
	m["core.cached_prep_warm_ms"] = ms("core.cached_prep_warm")

	appends := get("journal.append").each // seconds
	m["journal.append_us"] = us("journal.append")
	m["journal.append_p95_us"] = percentile(appends, 0.95) * 1e6
	m["journal.scan_ms"] = ms("journal.scan")
	m["journal.bytes"] = float64(p.journalBytes)

	m["artcache.put_ms"] = ms("artcache.put")
	m["artcache.get_ms"] = ms("artcache.get")
	m["artcache.entry_kb"] = float64(p.entryBytes) / 1024 / float64(max(min(len(d.units), cachedPrepUnits), 1))
	m["artcache.hits"] = float64(p.cacheStats.Hits)
	m["artcache.misses"] = float64(p.cacheStats.Misses)

	m["dispatch.submit_ms"] = ms("dispatch.submit")
	m["dispatch.lease_rtt_us"] = us("dispatch.lease")
	m["dispatch.complete_rtt_us"] = us("dispatch.complete")
	m["dispatch.leases"] = float64(p.leases)
	m["dispatch.overhead_s"] = distOverhead // 0 unless the workload is distributed

	m["report.render_ms"] = ms("report.render")

	// Scale the traced sample to the whole study. Golden cycles are the
	// weight: both a unit's preparation and a cell's injections cost in
	// proportion to how long its program runs.
	var allUnitCycles, allCellCycles, tracedUnitCycles float64
	for _, g := range u.st.Goldens {
		allUnitCycles += float64(g.Cycles)
	}
	for _, r := range u.st.Results {
		allCellCycles += float64(r.GoldenCycles) * float64(d.spec.Faults)
	}
	for _, tu := range d.units {
		tracedUnitCycles += float64(tu.cyc)
	}
	unitScale, cellScale := 1.0, 1.0
	if tracedUnitCycles > 0 {
		unitScale = allUnitCycles / tracedUnitCycles
	}
	if d.cellCycles > 0 {
		cellScale = allCellCycles / d.cellCycles
	}
	var tracedSample, prepS, cellS float64
	for _, name := range unitSpans {
		tracedSample += selfS(name)
		prepS += selfS(name) * unitScale
	}
	for _, name := range cellSpans {
		tracedSample += selfS(name)
		cellS += selfS(name) * cellScale
	}
	// What the study pays but the traced sample does not contain is
	// estimated from the probes. A journaled study appends one record
	// per cell and per unit plus the meta record. A distributed study
	// on a warm cache compiles and simulates no golden run; instead
	// every lease loads and decodes its unit from the cache, costs a
	// lease and a complete round trip, and is journaled by the worker
	// and again by the coordinator. The dispatch probe leased one unit.
	records := float64(len(u.st.Results) + len(u.st.Goldens) + 1)
	var journalS, cacheS, rttS float64
	switch {
	case d.w.dist:
		leases := float64(p.leases * len(u.st.Goldens))
		prepS = 0
		cacheS = mean(get("core.cached_prep_warm").each) * leases
		rttS = (mean(get("dispatch.lease").each) + mean(get("dispatch.complete").each)) * leases
		journalS = mean(appends) * 2 * records
	case d.w.journal:
		journalS = mean(appends) * records
	}
	saveS := seconds(get("core.save").Total)
	study := prepS + cellS + journalS + cacheS + rttS + saveS

	pWorkers := float64(d.e.p)
	m["core.parallel_efficiency"] = u.cpu / (pWorkers * seconds(u.wall))
	m["core.sched_overhead_s"] = seconds(u.wall) - study/pWorkers
	m["trace.coverage"] = study / u.cpu
	if s := seconds(d.serial); s > 0 {
		m["trace.overhead_share"] = tracedSample/s - 1
	}

	// The profile: where one study's CPU time goes. An injection cannot
	// be split from outside, so its parts are estimates from the probes:
	// restores at the probed full/delta cost, the pre-flip replay at the
	// golden run's simulation speed, and the rest is post-flip
	// simulation plus classification.
	simSpeed := m["machine.sim_mcycles_per_s"] * 1e6
	restoreS := (float64(len(d.injectFirst))*m["machine.restore_full_us"] + float64(len(d.injectNext))*m["machine.restore_delta_us"]) / 1e6 // medians: robust to the odd page-fault storm
	var preflipS float64
	if simSpeed > 0 {
		preflipS = mean(d.preflip) * float64(len(d.preflip)) / simSpeed
	}
	injectS := selfS("faultinj.inject")
	restoreS = min(restoreS, injectS)
	preflipS = min(preflipS, injectS-restoreS)
	compileS := selfS("compiler.compile.O0") + selfS("compiler.compile.O1") + selfS("compiler.compile.O2") + selfS("compiler.compile.O3")
	// faultinj.prep is a golden pass plus a recording pass; split it in
	// the proportion the two direct passes took.
	prepTime := selfS("faultinj.prep")
	goldenShare := 0.5
	if g, r := seconds(golden.Total), seconds(get("checkpoint.record").Total); g+r > 0 {
		goldenShare = g / (g + r)
	}
	if d.w.dist {
		unitScale = 0 // no prep in the timed region; see cacheS above
	}
	rows := []profileRow{
		{Name: "prep: compile", Seconds: compileS * unitScale},
		{Name: "prep: golden run", Seconds: prepTime * goldenShare * unitScale},
		{Name: "prep: checkpoint record", Seconds: prepTime * (1 - goldenShare) * unitScale},
		{Name: "pruner: analyze + build + bound", Seconds: (selfS("binanalysis.analyze") + selfS("binanalysis.pruner_build") + selfS("binanalysis.bound")) * unitScale},
		{Name: "pruner: queries", Seconds: selfS("binanalysis.query") * cellScale},
		{Name: "inject: restore (est.)", Seconds: restoreS * cellScale},
		{Name: "inject: pre-flip replay (est.)", Seconds: preflipS * cellScale},
		{Name: "inject: post-flip sim + classify", Seconds: (injectS - restoreS - preflipS) * cellScale},
		{Name: "cell: sample + batch set-up", Seconds: (selfS("faultinj.sample") + selfS("campaign.cell")) * cellScale},
		{Name: "journal appends (est.) + study save", Seconds: journalS + saveS},
		{Name: "cache load + decode per lease (est.)", Seconds: cacheS},
		{Name: "lease + complete round trips (est.)", Seconds: rttS},
		{Name: "unaccounted (scheduler, GC, I/O)", Seconds: u.cpu - study},
	}
	for i := range rows {
		rows[i].Share = rows[i].Seconds / u.cpu
	}
	return m, rows
}
