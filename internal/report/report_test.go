package report

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sevsim/internal/campaign"
	"sevsim/internal/core"
)

// fakeStudy builds a synthetic study with plausible numbers so the
// renderers can be exercised without running campaigns.
func fakeStudy() *core.Study {
	st := &core.Study{
		MachineNames: []string{"Cortex-A15-like", "Cortex-A72-like"},
		BenchNames:   []string{"qsort", "gsm"},
		LevelNames:   []string{"O0", "O2"},
		TargetNames:  []string{"L1D.data", "RF", "ROB.pc"},
		Faults:       100,
	}
	cyclesFor := func(level string) uint64 {
		if level == "O0" {
			return 100000
		}
		return 60000
	}
	for _, m := range st.MachineNames {
		for _, b := range st.BenchNames {
			for _, l := range st.LevelNames {
				st.Goldens = append(st.Goldens, core.Golden{
					March: m, Bench: b, Level: l,
					Cycles: cyclesFor(l), CodeWords: 500, IPC: 1.3,
				})
				for i, target := range st.TargetNames {
					st.Results = append(st.Results, campaign.Result{
						March: m, Bench: b, Level: l, Target: target,
						Faults: 100,
						Counts: campaign.Counts{
							Masked: 80 - i*10, SDC: 5, Crash: 5, Timeout: 5, Assert: 5 + i*10,
						},
						GoldenCycles: cyclesFor(l),
						StructBits:   uint64(1000 * (i + 1)),
					})
				}
			}
		}
	}
	return st
}

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, []string{"a", "bbbb"}, [][]string{{"xxxxx", "y"}, {"z", "w"}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a    ") {
		t.Errorf("header misaligned: %q", lines[0])
	}
}

func TestCSVEscaping(t *testing.T) {
	var buf bytes.Buffer
	CSV(&buf, []string{"x", "y"}, [][]string{{`va"l`, "a,b"}})
	want := "x,y\n\"va\"\"l\",\"a,b\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestEverythingRenders(t *testing.T) {
	st := fakeStudy()
	var buf bytes.Buffer
	Everything(&buf, st)
	out := buf.String()
	for _, want := range []string{
		"Table I", "Figure 1", "Figure 2", "Figure 5", "Figure 9",
		"Figure 10", "Figure 11", "Figure 12",
		"Cortex-A15-like", "Cortex-A72-like",
		"wAVF", "ECC on L1D+L2", "ECC on L2 only",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFig1SpeedupValues(t *testing.T) {
	st := fakeStudy()
	var buf bytes.Buffer
	Fig1Performance(&buf, st)
	// 100000/60000 = 1.67x speedup at O2.
	if !strings.Contains(buf.String(), "1.67x") {
		t.Errorf("expected 1.67x speedup in:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "1.00x") {
		t.Error("expected 1.00x baseline for O0")
	}
}

func TestFig12ECCReducesFIT(t *testing.T) {
	st := fakeStudy()
	var buf bytes.Buffer
	Fig12ECC(&buf, st)
	if !strings.Contains(buf.String(), "no ECC") {
		t.Fatalf("missing scheme rows:\n%s", buf.String())
	}
}

func TestFailuresTable(t *testing.T) {
	st := fakeStudy()
	var buf bytes.Buffer
	Failures(&buf, st)
	if buf.Len() != 0 {
		t.Fatalf("clean study rendered a failures table:\n%s", buf.String())
	}

	st.Failed = []core.Failure{
		{March: "Cortex-A15-like", Bench: "gsm", Level: "O2",
			Stage: "compile", Err: "boom"},
		{March: "Cortex-A72-like", Bench: "qsort", Level: "O0", Target: "RF",
			Stage: "dispatch", Err: "lease expired", Retries: 2},
	}
	Failures(&buf, st)
	out := buf.String()
	for _, want := range []string{"Harness failures", "(unit)", "compile", "boom", "RF", "dispatch", "lease expired"} {
		if !strings.Contains(out, want) {
			t.Errorf("failures table missing %q:\n%s", want, out)
		}
	}

	// Everything includes the table only when failures exist.
	var all bytes.Buffer
	Everything(&all, st)
	if !strings.Contains(all.String(), "Harness failures") {
		t.Error("Everything omitted the failures table")
	}
}

func TestAnomaliesTable(t *testing.T) {
	st := fakeStudy()
	var buf bytes.Buffer
	Anomalies(&buf, st)
	if buf.Len() != 0 {
		t.Fatalf("clean study rendered an anomalies table:\n%s", buf.String())
	}

	st.Results[3].Counts.Unexpected = 2
	Anomalies(&buf, st)
	out := buf.String()
	bad := st.Results[3]
	for _, want := range []string{"Anomalies", bad.March, bad.Target, "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("anomalies table missing %q:\n%s", want, out)
		}
	}

	var all bytes.Buffer
	Everything(&all, st)
	if !strings.Contains(all.String(), "Anomalies") {
		t.Error("Everything omitted the anomalies table")
	}
}

func TestNumAndPct(t *testing.T) {
	if Pct(0.1234) != "12.34%" {
		t.Errorf("Pct = %s", Pct(0.1234))
	}
	if Num(0) != "0" {
		t.Errorf("Num(0) = %s", Num(0))
	}
	if !strings.Contains(Num(1e-9), "e") {
		t.Errorf("tiny Num should be scientific: %s", Num(1e-9))
	}
}

// TestCommittedResultsRender re-renders the committed study: results/'s
// figures.txt and campaigns.csv must be what Everything and Campaigns
// write for results/study.json, byte for byte, as sevrepro -load writes
// them.
func TestCommittedResultsRender(t *testing.T) {
	dir := filepath.Join("..", "..", "results")
	st, err := core.Load(filepath.Join(dir, "study.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, render := range map[string]func(io.Writer, *core.Study){
		"figures.txt":   Everything,
		"campaigns.csv": Campaigns,
	} {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		render(&got, st)
		if !bytes.Equal(got.Bytes(), want) {
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Errorf("results/%s line %d:\n  committed: %s\n  rendered:  %s", name, i+1, wl[i], gl[i])
					break
				}
			}
			t.Errorf("results/%s drifted from its renderer (%d lines committed, %d rendered); re-render with sevrepro -load results/study.json -out results", name, len(wl), len(gl))
		}
	}
}
