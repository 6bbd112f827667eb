package cpu_test

import (
	"fmt"
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/cpu"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// sideAtTestSize is how many events of each bundled unit's golden run
// at TestSize the commit trace keeps whole in its side tables, by
// level O0 to O3: all of them commit more than 255 cycles after the
// first event of their 64-event block, most of them behind the cold
// misses of the run's first blocks.
var sideAtTestSize = map[string][4]int{
	"A15 qsort":    {73, 88, 72, 92},
	"A15 dijkstra": {129, 108, 87, 140},
	"A15 fft":      {204, 134, 137, 217},
	"A15 sha":      {86, 129, 120, 123},
	"A15 blowfish": {93, 73, 83, 116},
	"A15 gsm":      {94, 88, 55, 129},
	"A15 patricia": {97, 86, 94, 128},
	"A15 rijndael": {185, 114, 135, 209},
	"A72 qsort":    {43, 46, 35, 73},
	"A72 dijkstra": {101, 68, 43, 71},
	"A72 fft":      {123, 93, 98, 75},
	"A72 sha":      {127, 64, 78, 85},
	"A72 blowfish": {70, 69, 40, 91},
	"A72 gsm":      {62, 52, 42, 86},
	"A72 patricia": {71, 74, 68, 80},
	"A72 rijndael": {136, 51, 67, 132},
}

// TestCommitTraceNarrow traces every bundled unit at TestSize and checks
// that the trace gives back exactly the events its run committed, that
// its side tables hold the pinned number of them, and that those are
// exactly the events more than 255 cycles past their block's first: in
// a golden run every PC lies in the image above the entry point and
// writes one destination, and every tag fits a byte.
func TestCommitTraceNarrow(t *testing.T) {
	for _, cfg := range machine.Configs() {
		for _, b := range workloads.All() {
			for _, lv := range compiler.Levels {
				unit := fmt.Sprintf("%s %s", cfg.CPU.Name, b.Name)
				prog, err := compiler.Compile(b.Source(b.TestSize), b.Name, lv,
					compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
				if err != nil {
					t.Fatal(err)
				}
				m := machine.New(cfg, prog)
				var events []cpu.CommitEvent
				trace := &cpu.CommitTrace{}
				m.Core.SetCommitHook(func(ev cpu.CommitEvent) {
					events = append(events, ev)
					trace.Append(ev)
				})
				if res := m.Run(1 << 40); res.Outcome != machine.OutcomeOK {
					t.Fatalf("%s %v: golden run ended %v %s", unit, lv, res.Outcome, res.Reason)
				}
				if trace.Len() != len(events) {
					t.Fatalf("%s %v: Len %d, want %d", unit, lv, trace.Len(), len(events))
				}
				stalls := 0
				for i, ev := range events {
					if got := trace.At(i); got != ev {
						t.Fatalf("%s %v: event %d is %+v, want %+v", unit, lv, i, got, ev)
					}
					if base := events[i&^63].Cycle; ev.Cycle < base || ev.Cycle-base > 0xff {
						stalls++
					}
				}
				side, want := cpu.SideEvents(trace), sideAtTestSize[unit][lv]
				if side != want || side != stalls {
					t.Errorf("%s %v: %d of %d events in the side tables, want %d (%d past their block's cycle range)",
						unit, lv, side, len(events), want, stalls)
				}
			}
		}
	}
}
