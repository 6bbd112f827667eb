package machine_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/compiler"
	"sevsim/internal/cpu"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_cycles.golden from the current simulator")

// TestGoldenCyclesPinned is the cycle-exactness oracle for simulator
// speed work: every bundled (march, benchmark, level) unit at TestSize,
// plus qsort and sha at O0/O2 at DefaultSize, must reproduce the pinned
// cycle count, every cpu.Stats and cache counter, the output checksum,
// an FNV of the encoded final core state (every field a checkpoint
// carries, dead state included), and an FNV of the whole commit-event
// stream. A change that claims "same simulated cycles" leaves the golden
// file byte-identical; one that deliberately changes timing refreshes it
// with `go test ./internal/machine -run TestGoldenCyclesPinned -update`.
func TestGoldenCyclesPinned(t *testing.T) {
	var got bytes.Buffer
	for _, cfg := range machine.Configs() {
		for _, b := range workloads.All() {
			for _, lv := range compiler.Levels {
				got.WriteString(goldenLine(t, cfg, b, b.TestSize, lv))
			}
		}
	}
	for _, cfg := range machine.Configs() {
		for _, name := range []string{"qsort", "sha"} {
			b, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, lv := range []compiler.OptLevel{compiler.O0, compiler.O2} {
				got.WriteString(goldenLine(t, cfg, b, b.DefaultSize, lv))
			}
		}
	}

	golden := filepath.Join("testdata", "golden_cycles.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s has %d", len(gotLines), golden, len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d differs from %s\n got %s\nwant %s", i+1, golden, gotLines[i], wantLines[i])
		}
	}
}

// goldenLine simulates one unit with the commit hook on and renders
// everything the pin holds as one line.
func goldenLine(t *testing.T, cfg machine.Config, b workloads.Benchmark, size int, lv compiler.OptLevel) string {
	t.Helper()
	prog, err := compiler.Compile(b.Source(size), b.Name, lv,
		compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cfg, prog)
	events := fnv.New64a()
	var commits uint64
	var buf [19]byte
	m.Core.SetCommitHook(func(ev cpu.CommitEvent) {
		commits++
		binary.LittleEndian.PutUint64(buf[0:], ev.Cycle)
		binary.LittleEndian.PutUint64(buf[8:], ev.PC)
		buf[16] = ev.DestArch
		binary.LittleEndian.PutUint16(buf[17:], ev.DestPhys)
		events.Write(buf[:])
	})
	res := m.Run(1 << 40)
	if res.Outcome != machine.OutcomeOK {
		t.Fatalf("%s %s %v size %d: golden run ended %v %s", cfg.CPU.Name, b.Name, lv, size, res.Outcome, res.Reason)
	}
	out := fnv.New64a()
	for _, v := range res.Output {
		binary.LittleEndian.PutUint64(buf[0:], v)
		out.Write(buf[:8])
	}
	var core binio.Writer
	final := m.Core.Snapshot()
	final.EncodeTo(&core)
	final.Release()
	state := fnv.New64a()
	state.Write(core.Bytes())
	return fmt.Sprintf("%s %s %v size=%d cycles=%d stats=%+v l1i=%+v l1d=%+v l2=%+v outputs=%d out=%016x state=%016x commits=%d events=%016x\n",
		cfg.CPU.Name, b.Name, lv, size, res.Cycles, res.Stats, res.L1I, res.L1D, res.L2,
		len(res.Output), out.Sum64(), state.Sum64(), commits, events.Sum64())
}
