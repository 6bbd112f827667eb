package cpu

import (
	"testing"

	"sevsim/internal/binio"
)

// FuzzCommitTrace appends event sequences built from the input, two
// bytes a step: golden-shaped runs (a 16-instruction loop at the current
// PC, a few cycles apart, each PC with one destination) of up to 16,321
// events, so a few steps cross a chunk; long stalls; far or unaligned
// PCs, below the trace's first one too; PC words on either side of
// sideBase; a DestArch that contradicts the current PC's, NoDest and the
// unlearned marker included; tags 0xff to 0xffff; and cycles next to
// 2^64. At and a round trip through the
// 19-byte codec must both give back exactly what was appended.
func FuzzCommitTrace(f *testing.F) {
	f.Add(uint64(0), uint64(0x10000), []byte{0, 2, 1, 9, 0, 1, 3, 4, 0, 1})
	f.Add(uint64(1000), uint64(0x10000), []byte{0, 255, 0, 255, 2, 40, 0, 3, 4, 255, 0, 0})
	f.Add(^uint64(0)-500, uint64(0x400), []byte{0, 1, 5, 7, 0, 8, 2, 3, 0, 2, 3, 0xfd, 3, 0xfe, 4, 0})
	f.Add(uint64(7), ^uint64(0)-8, []byte{2, 0, 0, 1, 2, 200, 0, 1, 1, 100, 0, 1})
	f.Add(uint64(50), uint64(0x10000), []byte{0, 0, 2, 1, 6, 1, 6, 2, 0, 1, 6, 3, 3, 7})
	f.Add(uint64(9), uint64(0x10000), []byte{3, 0xfe, 3, 5, 0, 1, 3, NoDest})
	f.Fuzz(func(t *testing.T, cycle, pc uint64, steps []byte) {
		var want []CommitEvent
		tr := &CommitTrace{}
		pc0 := pc // the trace's PC base, its first event's
		add := func(ev CommitEvent) {
			if len(want) == 0 {
				pc0 = ev.PC
			}
			want = append(want, ev)
			tr.Append(ev)
		}
		for ; len(steps) >= 2; steps = steps[2:] {
			arg := steps[1]
			switch steps[0] % 7 {
			case 0: // a golden-shaped run
				for k := 0; k <= int(arg)*64; k++ {
					cycle += uint64(k % 3)
					at := pc + 4*uint64(k%16)
					add(CommitEvent{Cycle: cycle, PC: at, DestArch: goldenDest(at), DestPhys: uint16(k % 200)})
				}
			case 1: // a long stall
				cycle += uint64(arg) << (arg % 20)
				add(CommitEvent{Cycle: cycle, PC: pc, DestArch: goldenDest(pc), DestPhys: 1})
			case 2: // a far or unaligned PC
				pc += uint64(arg)<<(arg%60) | uint64(arg%4)
				if arg&1 != 0 {
					pc -= 1 << 20
				}
				add(CommitEvent{Cycle: cycle, PC: pc, DestArch: goldenDest(pc), DestPhys: 2})
			case 3: // a destination the PC's first event did not write
				add(CommitEvent{Cycle: cycle, PC: pc, DestArch: arg, DestPhys: 3})
			case 4: // a tag past the narrow byte
				add(CommitEvent{Cycle: cycle, PC: pc, DestArch: goldenDest(pc), DestPhys: 0xff + uint16(arg)<<8})
			case 5: // a cycle next to 2^64
				cycle = ^uint64(0) - uint64(arg)
				add(CommitEvent{Cycle: cycle, PC: pc, DestArch: goldenDest(pc), DestPhys: 0xffff})
			case 6: // a PC word next to the first that marks a side event
				pc = pc0 + 4*(sideBase-2+uint64(arg%4))
				add(CommitEvent{Cycle: cycle, PC: pc, DestArch: goldenDest(pc), DestPhys: 4})
			}
		}
		var w binio.Writer
		EncodeCommitEvents(&w, tr)
		r := binio.NewReader(w.Bytes())
		dec := DecodeCommitEvents(r)
		if r.Err() != nil || r.Len() != 0 {
			t.Fatalf("decode error %v, %d bytes left", r.Err(), r.Len())
		}
		for _, got := range []*CommitTrace{tr, dec} {
			if got.Len() != len(want) {
				t.Fatalf("Len %d, want %d", got.Len(), len(want))
			}
			for i, ev := range want {
				if g := got.At(i); g != ev {
					t.Fatalf("event %d is %+v, want %+v", i, g, ev)
				}
			}
		}
	})
}
