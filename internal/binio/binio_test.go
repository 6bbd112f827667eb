package binio

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0xFFFFFFFFFFFFFFFF)
	w.Int(-7)
	w.Uvarint(1 << 40)
	w.String("hello \x00 world")
	w.U64s([]uint64{0, 1, 1 << 63})
	w.U16s([]uint16{65535, 0, 42})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := r.U16(); got != 0xBEEF {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0xFFFFFFFFFFFFFFFF {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.Int(); got != -7 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.String(); got != "hello \x00 world" {
		t.Fatalf("String = %q", got)
	}
	if got := r.U64sInto(nil); !slices.Equal(got, []uint64{0, 1, 1 << 63}) {
		t.Fatalf("U64s = %v", got)
	}
	if got := r.U16sInto(nil); !slices.Equal(got, []uint16{65535, 0, 42}) {
		t.Fatalf("U16s = %v", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}

// TestFixedIsTheHandWrittenLayout: a record written whole is the bytes
// its fields written one by one in declaration order would be, so
// replacing a field-by-field encoder with Fixed moves no byte; it reads
// back, and every truncation of it is a sticky error.
func TestFixedIsTheHandWrittenLayout(t *testing.T) {
	type slot struct {
		PC   uint64
		Word uint32
		Op   uint8
		Imm  int32
		Hit  bool
	}
	slots := []slot{{1 << 40, 0xDEADBEEF, 7, -3, true}, {2, 3, 4, 5, false}}
	stats := struct{ A, B uint64 }{9, 1 << 63}

	var fixed, byHand Writer
	fixed.Fixed(slots)
	fixed.Fixed(&stats)
	for _, s := range slots {
		byHand.U64(s.PC)
		byHand.U32(s.Word)
		byHand.U8(s.Op)
		byHand.U32(uint32(s.Imm))
		byHand.Bool(s.Hit)
	}
	byHand.U64(stats.A)
	byHand.U64(stats.B)
	if !bytes.Equal(fixed.Bytes(), byHand.Bytes()) {
		t.Fatalf("Fixed wrote % x\nby hand     % x", fixed.Bytes(), byHand.Bytes())
	}

	full := fixed.Bytes()
	for n := 0; n <= len(full); n++ {
		r := NewReader(full[:n])
		gotSlots := make([]slot, len(slots))
		var gotStats struct{ A, B uint64 }
		r.Fixed(gotSlots)
		r.Fixed(&gotStats)
		switch {
		case n < len(full) && r.Err() == nil:
			t.Fatalf("truncation to %d bytes decoded without error", n)
		case n == len(full) && (r.Err() != nil || !slices.Equal(gotSlots, slots) || gotStats != stats):
			t.Fatalf("round trip: %v %+v %+v", r.Err(), gotSlots, gotStats)
		}
	}
}

// TestFixedPanicsOnUnsizedFields: a field encoding/binary cannot size
// fails the first encode, even in an empty slice, not a later decode.
func TestFixedPanicsOnUnsizedFields(t *testing.T) {
	type withInt struct {
		A uint64
		N int
	}
	for name, v := range map[string]any{
		"struct":      &withInt{},
		"empty slice": []withInt{},
		"string":      &struct{ S string }{},
	} {
		for side, call := range map[string]func(){
			"write": func() { var w Writer; w.Fixed(v) },
			"read":  func() { NewReader(make([]byte, 64)).Fixed(v) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: no panic", side, name)
					}
				}()
				call()
			}()
		}
	}
}

func TestRLERoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{1},
		bytes.Repeat([]byte{0}, 100000),
		bytes.Repeat([]byte{7}, 1000),
		{0, 0, 0, 1, 0, 0, 0}, // short runs fold into literals
		append(bytes.Repeat([]byte{0}, 8), 1, 2, 3),         // min collapsible run
		append([]byte{9}, bytes.Repeat([]byte{0}, 1024)...), // literal then big run
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		// Sparse random buffers shaped like cache slabs.
		buf := make([]byte, rng.Intn(4096))
		for j := 0; j < len(buf)/10; j++ {
			buf[rng.Intn(len(buf)+1)%max(len(buf), 1)] = byte(rng.Intn(256))
		}
		cases = append(cases, buf)
	}
	for i, c := range cases {
		var w Writer
		w.RLE(c)
		r := NewReader(w.Bytes())
		got := r.RLEInto(nil)
		if r.Err() != nil {
			t.Fatalf("case %d: %v", i, r.Err())
		}
		if !bytes.Equal(got, c) {
			t.Fatalf("case %d: round trip mismatch (%d vs %d bytes)", i, len(got), len(c))
		}
		if r.Len() != 0 {
			t.Fatalf("case %d: %d bytes left", i, r.Len())
		}
	}
}

// TestRLECanonical: identical input must always serialize to identical
// bytes (content-addressed storage depends on it).
func TestRLECanonical(t *testing.T) {
	buf := append(bytes.Repeat([]byte{0}, 500), 1, 2, 0, 0, 3)
	var w1, w2 Writer
	w1.RLE(buf)
	w2.RLE(slices.Clone(buf))
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("RLE output not canonical")
	}
}

// TestTruncatedInputFailsCleanly: every truncation of a valid buffer
// must produce a sticky error, never a panic or silent zero data.
func TestTruncatedInputFailsCleanly(t *testing.T) {
	var w Writer
	w.U64s([]uint64{1, 2, 3})
	w.RLE(bytes.Repeat([]byte{1}, 64))
	w.String("tail")
	full := w.Bytes()
	for n := 0; n < len(full); n++ {
		r := NewReader(full[:n])
		r.U64sInto(nil)
		r.RLEInto(nil)
		_ = r.String()
		if r.Err() == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

// TestCorruptLengthRejected: an absurd length prefix must be rejected
// by the remaining-bytes bound, not allocated.
func TestCorruptLengthRejected(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 50) // claimed element count with no data behind it
	r := NewReader(w.Bytes())
	if got := r.U64sInto(nil); len(got) != 0 || r.Err() == nil {
		t.Fatalf("corrupt length accepted: %d elems, err %v", len(got), r.Err())
	}
}

func TestReuseBuffers(t *testing.T) {
	var w Writer
	w.U64s([]uint64{1, 2})
	w.U16s([]uint16{3})
	w.RLE([]byte{4, 5, 6})
	r := NewReader(w.Bytes())
	big64 := make([]uint64, 0, 128)
	big16 := make([]uint16, 0, 128)
	big8 := make([]byte, 0, 128)
	g64 := r.U64sInto(big64)
	g16 := r.U16sInto(big16)
	g8 := r.RLEInto(big8)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if &g64[0] != &big64[:1][0] || &g16[0] != &big16[:1][0] || &g8[0] != &big8[:1][0] {
		t.Fatal("Into variants did not reuse caller buffers")
	}
	if !slices.Equal(g64, []uint64{1, 2}) || !slices.Equal(g16, []uint16{3}) || !bytes.Equal(g8, []byte{4, 5, 6}) {
		t.Fatal("values wrong after reuse")
	}
}
