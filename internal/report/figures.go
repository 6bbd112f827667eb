package report

import (
	"fmt"
	"io"

	"sevsim/internal/avf"
	"sevsim/internal/core"
	"sevsim/internal/faultinj"
	"sevsim/internal/fit"
	"sevsim/internal/stats"
)

// classColumns is the presentation order of the non-masked classes in
// the AVF figures.
var classColumns = []faultinj.Outcome{faultinj.SDC, faultinj.Crash, faultinj.Timeout, faultinj.Assert}

// TableI prints the microprocessor configuration table.
func TableI(w io.Writer) {
	rows := [][]string{}
	add := func(param, a15, a72 string) { rows = append(rows, []string{param, a15, a72}) }
	a15, _ := core.MachineConfig("Cortex-A15-like")
	a72, _ := core.MachineConfig("Cortex-A72-like")
	add("ISA width", fmt.Sprintf("%d-bit", a15.CPU.XLEN), fmt.Sprintf("%d-bit", a72.CPU.XLEN))
	add("Pipeline", "Out-of-Order", "Out-of-Order")
	add("L1 Data Cache", cacheDesc(a15.L1D.Size, a15.L1D.Ways), cacheDesc(a72.L1D.Size, a72.L1D.Ways))
	add("L1 Instruction Cache", cacheDesc(a15.L1I.Size, a15.L1I.Ways), cacheDesc(a72.L1I.Size, a72.L1I.Ways))
	add("L2 Cache", cacheDesc(a15.L2.Size, a15.L2.Ways), cacheDesc(a72.L2.Size, a72.L2.Ways))
	add("Physical Register File", fmt.Sprint(a15.CPU.NumPhysRegs, " registers"), fmt.Sprint(a72.CPU.NumPhysRegs, " registers"))
	add("Issue Queue", fmt.Sprint(a15.CPU.IQSize, " entries"), fmt.Sprint(a72.CPU.IQSize, " entries"))
	add("Load / Store Queue", fmt.Sprintf("%d / %d entries", a15.CPU.LQSize, a15.CPU.SQSize),
		fmt.Sprintf("%d / %d entries", a72.CPU.LQSize, a72.CPU.SQSize))
	add("Reorder Buffer", fmt.Sprint(a15.CPU.ROBSize, " entries"), fmt.Sprint(a72.CPU.ROBSize, " entries"))
	add("Fetch width", fmt.Sprint(a15.CPU.FetchWidth), fmt.Sprint(a72.CPU.FetchWidth))
	add("Execute width", fmt.Sprint(a15.CPU.IssueWidth), fmt.Sprint(a72.CPU.IssueWidth))
	add("Writeback width", fmt.Sprint(a15.CPU.WBWidth), fmt.Sprint(a72.CPU.WBWidth))
	add("Raw FIT/bit", fmt.Sprintf("%.2e", a15.RawFITPerBit), fmt.Sprintf("%.2e", a72.RawFITPerBit))
	fmt.Fprintln(w, "Table I: microprocessor configurations")
	Table(w, []string{"Parameter", "Cortex-A15-like", "Cortex-A72-like"}, rows)
}

func cacheDesc(size, ways int) string {
	return fmt.Sprintf("%d KB (%d-way)", size/1024, ways)
}

// Fig1Performance prints relative performance (speedup over O0, higher
// is better) per benchmark, level, and microarchitecture.
func Fig1Performance(w io.Writer, st *core.Study) {
	fmt.Fprintln(w, "Figure 1: relative performance among optimization levels (speedup vs O0)")
	for _, march := range st.MachineNames {
		fmt.Fprintf(w, "\n[%s]\n", march)
		rows := [][]string{}
		for _, bench := range st.BenchNames {
			base, ok := st.Golden(march, bench, "O0")
			if !ok {
				continue
			}
			row := []string{bench}
			for _, level := range st.LevelNames {
				g, ok := st.Golden(march, bench, level)
				if !ok {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.2fx", float64(base.Cycles)/float64(g.Cycles)))
			}
			rows = append(rows, row)
		}
		Table(w, append([]string{"benchmark"}, st.LevelNames...), rows)
	}
}

// FigAVF prints one structure field's AVF figure: per benchmark and
// level, the AVF with its class breakdown, plus the weighted-AVF
// aggregate row (the rightmost bars of the paper's figures).
func FigAVF(w io.Writer, st *core.Study, caption, target string) {
	fmt.Fprintln(w, caption)
	for _, march := range st.MachineNames {
		fmt.Fprintf(w, "\n[%s] %s\n", march, target)
		headers := []string{"benchmark", "level", "AVF", "SDC", "Crash", "Timeout", "Assert"}
		rows := [][]string{}
		for _, bench := range st.BenchNames {
			for _, level := range st.LevelNames {
				r, ok := st.Result(march, bench, level, target)
				if !ok {
					continue
				}
				rates := avf.Rates(r)
				row := []string{bench, level, Pct(rates.AVF())}
				for _, o := range classColumns {
					row = append(row, Pct(rates[o]))
				}
				rows = append(rows, row)
			}
		}
		// Weighted aggregate (wAVF) rows.
		for _, level := range st.LevelNames {
			agg := avf.Weighted(st.AcrossBenches(march, level, target))
			row := []string{"wAVF", level, Pct(agg.AVF())}
			for _, o := range classColumns {
				row = append(row, Pct(agg[o]))
			}
			rows = append(rows, row)
		}
		Table(w, headers, rows)
	}
}

// Fig9Delta prints the weighted-AVF difference of each optimization
// level relative to O0, per structure field and microarchitecture.
func Fig9Delta(w io.Writer, st *core.Study) {
	fmt.Fprintln(w, "Figure 9: weighted AVF difference vs O0 (percentage points; positive = more vulnerable)")
	for _, march := range st.MachineNames {
		fmt.Fprintf(w, "\n[%s]\n", march)
		headers := []string{"structure"}
		var optLevels []string
		for _, l := range st.LevelNames {
			if l != "O0" {
				optLevels = append(optLevels, l)
				headers = append(headers, l+"-O0")
			}
		}
		rows := [][]string{}
		for _, target := range st.TargetNames {
			base := st.AcrossBenches(march, "O0", target)
			row := []string{target}
			for _, level := range optLevels {
				d := avf.Delta(st.AcrossBenches(march, level, target), base)
				row = append(row, fmt.Sprintf("%+.2f", d*100))
			}
			rows = append(rows, row)
		}
		Table(w, headers, rows)
	}
}

// Fig10FIT prints the whole-CPU FIT rate per benchmark and level,
// split into SDC and crash-class (AppCrash/Timeout/Assert) shares.
func Fig10FIT(w io.Writer, st *core.Study) {
	fmt.Fprintln(w, "Figure 10: whole-CPU FIT rates per benchmark and level (no ECC)")
	for _, march := range st.MachineNames {
		cfg, _ := core.MachineConfig(march)
		fmt.Fprintf(w, "\n[%s] raw FIT/bit = %.2e\n", march, cfg.RawFITPerBit)
		headers := []string{"benchmark", "level", "FIT", "FIT(SDC)", "FIT(crash-class)"}
		rows := [][]string{}
		for _, bench := range st.BenchNames {
			for _, level := range st.LevelNames {
				results := st.CellStructures(march, bench, level)
				if len(results) == 0 {
					continue
				}
				total := fit.CPU(results, cfg.RawFITPerBit, fit.ECCNone)
				byClass := fit.CPUByClass(results, cfg.RawFITPerBit, fit.ECCNone)
				crashClass := byClass[faultinj.Crash] + byClass[faultinj.Timeout] + byClass[faultinj.Assert]
				rows = append(rows, []string{bench, level,
					Num(total), Num(byClass[faultinj.SDC]), Num(crashClass)})
			}
		}
		Table(w, headers, rows)
	}
}

// Fig11FPE prints failures-per-execution normalized to O0 (lower is a
// better reliability/performance tradeoff).
func Fig11FPE(w io.Writer, st *core.Study) {
	fmt.Fprintln(w, "Figure 11: failures per execution (FPE), normalized to O0")
	for _, march := range st.MachineNames {
		cfg, _ := core.MachineConfig(march)
		fmt.Fprintf(w, "\n[%s]\n", march)
		rows := [][]string{}
		for _, bench := range st.BenchNames {
			row := []string{bench}
			var baseFPE float64
			for _, level := range st.LevelNames {
				results := st.CellStructures(march, bench, level)
				g, ok := st.Golden(march, bench, level)
				if !ok || len(results) == 0 {
					row = append(row, "-")
					continue
				}
				cpuFIT := fit.CPU(results, cfg.RawFITPerBit, fit.ECCNone)
				fpe := fit.FPE(cpuFIT, g.Cycles, cfg.ClockHz)
				if level == "O0" {
					baseFPE = fpe
				}
				if baseFPE > 0 {
					row = append(row, fmt.Sprintf("%.3f", fpe/baseFPE))
				} else {
					row = append(row, "-")
				}
			}
			rows = append(rows, row)
		}
		Table(w, append([]string{"benchmark"}, st.LevelNames...), rows)
	}
}

// Fig12ECC prints the whole-CPU FIT per level for the three protection
// scenarios, computed from the weighted AVF across all benchmarks (all
// workloads jointly considered, as in the paper's Section VII).
func Fig12ECC(w io.Writer, st *core.Study) {
	fmt.Fprintln(w, "Figure 12: whole-CPU FIT per level under ECC scenarios (weighted across all benchmarks)")
	for _, march := range st.MachineNames {
		cfg, _ := core.MachineConfig(march)
		fmt.Fprintf(w, "\n[%s]\n", march)
		headers := append([]string{"scheme"}, st.LevelNames...)
		rows := [][]string{}
		for _, scheme := range fit.Schemes() {
			row := []string{scheme.String()}
			for _, level := range st.LevelNames {
				total := 0.0
				for _, target := range st.TargetNames {
					if scheme.Protected(target) {
						continue
					}
					results := st.AcrossBenches(march, level, target)
					if len(results) == 0 {
						continue
					}
					agg := avf.Weighted(results)
					total += fit.Structure(cfg.RawFITPerBit, results[0].StructBits, agg.AVF())
				}
				row = append(row, Num(total))
			}
			rows = append(rows, row)
		}
		Table(w, headers, rows)
	}
}

// StaticVsDynamic prints the static ACE bounds for the register file
// next to the injected RF AVF: the static AVF upper bound must sit at
// or above the measured AVF on every cell (soundness), and the gap
// shows how much of the masking only the dynamic campaign can see
// (speculative state, timing, values masked by arithmetic). Both
// granularities of the Masked bound are shown — the register-level
// dead-set bound and the bit-level known-bits + bit-liveness bound
// (always at least as tight) — alongside the fault-propagation
// analysis's DUE lower bound and SDC upper bound (DUE>= must sit at or
// below the measured crash rate, SDC<= at or above the measured SDC
// rate), and the pruned column splits the statically proven injections
// by proof class: register-dead, bit-dead, crash-certain.
func StaticVsDynamic(w io.Writer, st *core.Study) {
	if len(st.Static) == 0 {
		return
	}
	fmt.Fprintln(w, "Static vs dynamic RF vulnerability (static ACE bounds against injected AVF)")
	for _, march := range st.MachineNames {
		fmt.Fprintf(w, "\n[%s]\n", march)
		headers := []string{"benchmark", "level",
			"reg Masked>=", "bit Masked>=", "DUE>=", "SDC<=", "static AVF<=",
			"injected AVF", "pruned(reg+bit+due)"}
		rows := [][]string{}
		for _, bench := range st.BenchNames {
			for _, level := range st.LevelNames {
				s, ok := st.StaticFor(march, bench, level)
				if !ok {
					continue
				}
				row := []string{bench, level,
					Pct(s.RegMaskedLB), Pct(s.MaskedLB),
					Pct(s.DueLB), Pct(s.SDCUpperBound), Pct(s.AVFUpperBound)}
				if r, ok := st.Result(march, bench, level, "RF"); ok && r.Faults > 0 {
					row = append(row, Pct(r.AVF()),
						fmt.Sprintf("%d/%d (%d+%d+%d)", r.Counts.Pruned, r.Faults,
							r.Counts.PrunedReg, r.Counts.PrunedBit, r.Counts.PrunedDUE))
				} else {
					row = append(row, "-", "-")
				}
				rows = append(rows, row)
			}
		}
		Table(w, headers, rows)
	}
}

// Failures prints the quarantined units and cells. Prints nothing for a
// clean study, so historical figure output is unchanged.
func Failures(w io.Writer, st *core.Study) {
	if len(st.Failed) == 0 {
		return
	}
	fmt.Fprintln(w, "Harness failures: units/cells quarantined instead of aborting the study")
	headers := []string{"march", "benchmark", "level", "target", "stage", "retries", "error"}
	rows := make([][]string, 0, len(st.Failed))
	for _, f := range st.Failed {
		target := f.Target
		if target == "" {
			target = "(unit)"
		}
		rows = append(rows, []string{f.March, f.Bench, f.Level, target, f.Stage, fmt.Sprint(f.Retries), f.Err})
	}
	Table(w, headers, rows)
}

// Anomalies prints the cells whose campaigns recorded unexpected
// simulator panics (injections classified Crash by recovery rather than
// by a modeled exception). A nonzero row here means the harness itself
// misbehaved and the cell's rates deserve suspicion. Prints nothing
// when every cell is clean.
func Anomalies(w io.Writer, st *core.Study) {
	headers := []string{"march", "benchmark", "level", "target", "unexpected", "faults"}
	rows := [][]string{}
	for _, r := range st.Results {
		if r.Counts.Unexpected == 0 {
			continue
		}
		rows = append(rows, []string{
			r.March, r.Bench, r.Level, r.Target,
			fmt.Sprint(r.Counts.Unexpected), fmt.Sprint(r.Faults),
		})
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, "Anomalies: cells with unexpected simulator panics (rates suspect)")
	Table(w, headers, rows)
}

// Margin prints the statistical error margin implied by the study's
// fault count per cell (the paper's 2,000 faults give 2.88% at 99%).
func Margin(w io.Writer, st *core.Study) {
	if len(st.Results) == 0 {
		return
	}
	var maxBits uint64
	for _, r := range st.Results {
		if r.StructBits > maxBits {
			maxBits = r.StructBits
		}
	}
	m := stats.ErrorMargin(st.Faults, maxBits*1_000_000, 0.99)
	fmt.Fprintf(w, "Statistical sampling: %d faults per cell -> ±%.2f%% error margin at 99%% confidence\n",
		st.Faults, m*100)
}

// Campaigns writes the raw campaign data as CSV, one row per cell, for
// downstream plotting.
func Campaigns(w io.Writer, st *core.Study) {
	headers := []string{"march", "bench", "level", "target", "faults",
		"masked", "sdc", "crash", "timeout", "assert",
		"pruned", "pruned_reg", "pruned_bit", "pruned_due", "unexpected",
		"golden_cycles", "struct_bits"}
	rows := make([][]string, 0, len(st.Results))
	for _, r := range st.Results {
		rows = append(rows, []string{
			r.March, r.Bench, r.Level, r.Target,
			fmt.Sprint(r.Faults), fmt.Sprint(r.Counts.Masked), fmt.Sprint(r.Counts.SDC),
			fmt.Sprint(r.Counts.Crash), fmt.Sprint(r.Counts.Timeout), fmt.Sprint(r.Counts.Assert),
			fmt.Sprint(r.Counts.Pruned), fmt.Sprint(r.Counts.PrunedReg), fmt.Sprint(r.Counts.PrunedBit),
			fmt.Sprint(r.Counts.PrunedDUE), fmt.Sprint(r.Counts.Unexpected),
			fmt.Sprint(r.GoldenCycles), fmt.Sprint(r.StructBits),
		})
	}
	CSV(w, headers, rows)
}

// Everything writes every table and figure to w.
func Everything(w io.Writer, st *core.Study) {
	TableI(w)
	fmt.Fprintln(w)
	Margin(w, st)
	fmt.Fprintln(w)
	WorkloadCharacteristics(w, st)
	fmt.Fprintln(w)
	Fig1Performance(w, st)
	fmt.Fprintln(w)
	FigAVF(w, st, "Figure 2: AVF of the L1 instruction cache (data field)", "L1I.data")
	FigAVF(w, st, "Figure 2 (cont.): AVF of the L1 instruction cache (tag field)", "L1I.tag")
	fmt.Fprintln(w)
	FigAVF(w, st, "Figure 3: AVF of the L1 data cache (data field)", "L1D.data")
	FigAVF(w, st, "Figure 3 (cont.): AVF of the L1 data cache (tag field)", "L1D.tag")
	fmt.Fprintln(w)
	FigAVF(w, st, "Figure 4: AVF of the L2 cache (data field)", "L2.data")
	FigAVF(w, st, "Figure 4 (cont.): AVF of the L2 cache (tag field)", "L2.tag")
	fmt.Fprintln(w)
	FigAVF(w, st, "Figure 5: AVF of the physical register file", "RF")
	fmt.Fprintln(w)
	FigAVF(w, st, "Figure 6: AVF of the load queue", "LQ")
	FigAVF(w, st, "Figure 6 (cont.): AVF of the store queue", "SQ")
	fmt.Fprintln(w)
	FigAVF(w, st, "Figure 7: AVF of the issue queue (source field)", "IQ.src")
	FigAVF(w, st, "Figure 7 (cont.): AVF of the issue queue (destination field)", "IQ.dst")
	fmt.Fprintln(w)
	FigAVF(w, st, "Figure 8: AVF of the reorder buffer (PC field)", "ROB.pc")
	FigAVF(w, st, "Figure 8 (cont.): AVF of the reorder buffer (dest field)", "ROB.dest")
	FigAVF(w, st, "Figure 8 (cont.): AVF of the reorder buffer (old-mapping field)", "ROB.old")
	FigAVF(w, st, "Figure 8 (cont.): AVF of the reorder buffer (control field)", "ROB.ctrl")
	fmt.Fprintln(w)
	Fig9Delta(w, st)
	fmt.Fprintln(w)
	Fig10FIT(w, st)
	fmt.Fprintln(w)
	Fig11FPE(w, st)
	fmt.Fprintln(w)
	Fig12ECC(w, st)
	if len(st.Static) > 0 {
		fmt.Fprintln(w)
		StaticVsDynamic(w, st)
	}
	if len(st.Failed) > 0 {
		fmt.Fprintln(w)
		Failures(w, st)
	}
	for _, r := range st.Results {
		if r.Counts.Unexpected > 0 {
			fmt.Fprintln(w)
			Anomalies(w, st)
			break
		}
	}
}
