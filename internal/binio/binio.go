// Package binio provides the little-endian binary framing shared by
// the machine-state serializers (cpu, mem, machine, checkpoint): an
// appending Writer and a bounds-checked Reader with a sticky error, so
// decoders read straight through and check one error at the end. The
// encoding is deliberately position-dependent and versionless — the
// artifact cache wraps every blob in a checksummed, format-versioned
// envelope, so a reader here never sees bytes from a different layout.
//
// Byte slices go through a zero-run-length encoding (RLE): machine
// slabs — cache data arrays above all — are overwhelmingly zero for
// the bundled benchmarks, and collapsing zero runs shrinks serialized
// checkpoints by orders of magnitude. The encoding is canonical
// (greedy, fixed run threshold), so identical input always produces
// identical bytes — a requirement for content-addressed storage.
//
// A record of fixed layout (counters, queue slots) goes through Fixed
// whole, in encoding/binary's layout, so a field added to it is encoded
// with no edit here or in its package. Fixed reflects, about 40x slower
// per record than the primitives, so hot bulk data (the commit trace)
// stays hand-written.
package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

// Writer accumulates little-endian primitives in an append buffer.
// The zero value is ready to use.
type Writer struct {
	b []byte
}

// Bytes returns the encoded buffer. The slice aliases the writer's
// storage; further writes may reallocate but never mutate it in place
// after the caller stops writing.
func (w *Writer) Bytes() []byte { return w.b }

// Grow pre-allocates capacity for n additional bytes.
func (w *Writer) Grow(n int) {
	if cap(w.b)-len(w.b) < n {
		nb := make([]byte, len(w.b), len(w.b)+n)
		copy(nb, w.b)
		w.b = nb
	}
}

func (w *Writer) U8(v uint8)   { w.b = append(w.b, v) }
func (w *Writer) Bool(v bool)  { w.b = append(w.b, b2u(v)) }
func (w *Writer) U16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *Writer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Int encodes a Go int; values round-trip exactly through uint64.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// Uvarint writes v in the stdlib varint encoding (lengths, counts).
func (w *Writer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// Raw appends p with no length prefix; the reader must know the size.
func (w *Writer) Raw(p []byte) { w.b = append(w.b, p...) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(v []uint64) {
	w.Uvarint(uint64(len(v)))
	w.Grow(8 * len(v))
	for _, x := range v {
		w.U64(x)
	}
}

// U16s writes a length-prefixed []uint16.
func (w *Writer) U16s(v []uint16) {
	w.Uvarint(uint64(len(v)))
	w.Grow(2 * len(v))
	for _, x := range v {
		w.U16(x)
	}
}

// Fixed writes v, a pointer to a fixed-size value or a slice of them,
// in little-endian encoding/binary layout: fields in declaration order,
// no padding, a bool as one byte. A slice's length is the caller's to
// write. A type binary.Size cannot size (an int, a string, a pointer
// field) panics.
func (w *Writer) Fixed(v any) {
	w.Grow(fixedSize(v))
	buf := bytes.NewBuffer(w.b)
	binary.Write(buf, binary.LittleEndian, v) // cannot fail: sized, and a Buffer takes all
	w.b = buf.Bytes()
}

// fixedSize is binary.Size(v) judged by v's element type, since
// encoding/binary may size an empty slice of an unsized record as 0.
func fixedSize(v any) int {
	rv := reflect.ValueOf(v)
	if k := rv.Kind(); k == reflect.Pointer || k == reflect.Slice {
		if n := binary.Size(reflect.New(rv.Type().Elem()).Interface()); n >= 0 {
			if k == reflect.Slice {
				n *= rv.Len()
			}
			return n
		}
	}
	panic(fmt.Sprintf("binio: %T has no fixed layout", v))
}

// rleMinRun is the shortest zero run worth collapsing: below it the
// run costs more in pair framing than it saves. Part of the canonical
// encoding — changing it changes serialized bytes.
const rleMinRun = 8

// RLE writes a length-prefixed byte slice with zero runs collapsed:
// Uvarint(total length), then (Uvarint zero-run, Uvarint literal-run,
// literal bytes) pairs covering the slice in order. Greedy and
// canonical: a zero run shorter than rleMinRun (and not at the end)
// is emitted as literals.
func (w *Writer) RLE(p []byte) {
	w.Uvarint(uint64(len(p)))
	for i := 0; i < len(p); {
		zeros := i
		for zeros < len(p) && p[zeros] == 0 {
			zeros++
		}
		nz := zeros - i
		if zeros < len(p) && nz < rleMinRun {
			nz = 0 // short interior zero run: fold into the literal
		}
		lit := i + nz
		for lit < len(p) {
			// Stop the literal at the next collapsible zero run.
			if p[lit] == 0 {
				run := lit
				for run < len(p) && p[run] == 0 {
					run++
				}
				if run-lit >= rleMinRun || run == len(p) {
					break
				}
				lit = run
				continue
			}
			lit++
		}
		w.Uvarint(uint64(nz))
		w.Uvarint(uint64(lit - (i + nz)))
		w.Raw(p[i+nz : lit])
		i = lit
	}
}

// Reader consumes a buffer written by Writer. All reads are bounds
// checked; the first failure records a sticky error and every
// subsequent read returns zero values, so decoders check Err once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps b; the reader never mutates it but returned Raw
// slices alias it.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's sticky error; decoders use it for
// semantic validation failures (impossible lengths, config mismatch)
// so one Err check at the end covers framing and semantics alike.
func (r *Reader) Fail(err error) { r.fail(err) }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

var errShort = errors.New("binio: truncated input")

func (r *Reader) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil || n < 0 || r.Len() < n {
		r.fail(errShort)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *Reader) Bool() bool { return r.U8() != 0 }

func (r *Reader) U16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *Reader) Int() int { return int(int64(r.U64())) }

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(errShort)
		return 0
	}
	r.off += n
	return v
}

// length reads a Uvarint count and validates it against the bytes
// remaining (at perByte bytes per element minimum), so a corrupted
// count cannot trigger an absurd allocation.
func (r *Reader) length(perByte int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if perByte < 1 {
		perByte = 1
	}
	if n > uint64(r.Len()/perByte) {
		r.fail(fmt.Errorf("binio: length %d exceeds remaining input", n))
		return 0
	}
	return int(n)
}

// Fixed reads into v, a pointer or slice as for Writer.Fixed, sized by
// the caller. Short input sets the sticky error and leaves v as it was.
func (r *Reader) Fixed(v any) {
	if p := r.take(fixedSize(v)); r.err == nil {
		r.fail(binary.Read(bytes.NewReader(p), binary.LittleEndian, v))
	}
}

// Raw returns n bytes; the result aliases the input buffer.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.take(r.length(1))) }

// U64sInto reads a length-prefixed []uint64 into dst, reusing its
// backing array when capacity suffices (pooled-buffer discipline).
func (r *Reader) U64sInto(dst []uint64) []uint64 {
	n := r.length(8)
	dst = sizeFor(dst, n)
	for i := range dst {
		dst[i] = r.U64()
	}
	return dst
}

// U16sInto reads a length-prefixed []uint16 into dst.
func (r *Reader) U16sInto(dst []uint16) []uint16 {
	n := r.length(2)
	dst = sizeFor(dst, n)
	for i := range dst {
		dst[i] = r.U16()
	}
	return dst
}

// RLEInto reads a zero-run-length-encoded byte slice into dst.
func (r *Reader) RLEInto(dst []byte) []byte {
	total := r.Uvarint()
	if r.err != nil {
		return dst[:0]
	}
	// A run pair costs at least 2 input bytes but can legitimately
	// expand to a huge zero run, so bound by the declared total (which
	// itself is bounded by sanity, not remaining bytes — zeros are the
	// whole point). Cap at 1GiB as an anti-bomb guard far above any
	// real machine slab.
	if total > 1<<30 {
		r.fail(fmt.Errorf("binio: rle length %d exceeds sanity bound", total))
		return dst[:0]
	}
	dst = sizeFor(dst, int(total))
	r.rleRuns(dst)
	return dst
}

// RLEFill reads a zero-run-length-encoded byte slice that must decode
// to exactly len(dst) bytes into dst: the decoder of a fixed-size
// record allocates what it expects, never what the input declares.
func (r *Reader) RLEFill(dst []byte) {
	total := r.Uvarint()
	if r.err != nil {
		return
	}
	if total != uint64(len(dst)) {
		r.fail(fmt.Errorf("binio: rle length %d, want %d", total, len(dst)))
		return
	}
	r.rleRuns(dst)
}

// rleRuns decodes run pairs until dst is full.
func (r *Reader) rleRuns(dst []byte) {
	pos := 0
	for pos < len(dst) && r.err == nil {
		zeros := r.Uvarint()
		lits := r.Uvarint()
		if r.err != nil {
			break
		}
		left := uint64(len(dst) - pos)
		if zeros+lits == 0 || zeros > left || lits > left-zeros {
			r.fail(fmt.Errorf("binio: rle run overflows declared length"))
			break
		}
		clear(dst[pos : pos+int(zeros)])
		pos += int(zeros)
		copy(dst[pos:pos+int(lits)], r.take(int(lits)))
		pos += int(lits)
	}
	if pos != len(dst) {
		r.fail(errShort)
	}
}

func sizeFor[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

func b2u(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}
