package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Canonical binary codec. The encode half is append-only over a caller
// byte slice (zero hidden allocation, composable into larger sections);
// the decode half is a cursor with sticky error tracking. The rules that
// make an encoding canonical — and therefore make SHA-256 over the bytes a
// usable identity:
//
//   - fields are written in one fixed, documented order; there is no map
//     iteration and no optional-field skipping anywhere in an encode path
//   - scalars are fixed-width big-endian; float64 is its IEEE-754 bit
//     pattern (so NaN payloads and signed zeros round-trip bit-exactly)
//   - variable-length sections carry a u32 count/length prefix
//   - a decoder consumes the buffer exactly: trailing bytes are an error
//
// Under those rules every value has exactly one encoding, encode∘decode is
// the identity on bytes, and two encodings are byte-equal iff the values
// are equal — the property the content-addressed artifact store relies on.

// ErrCodec is the typed error for every canonical-decode failure
// (truncation, impossible lengths, trailing bytes). Wrapped with context.
var ErrCodec = errors.New("wire: malformed canonical encoding")

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU16 appends a big-endian uint16.
func AppendU16(b []byte, v uint16) []byte {
	return binary.BigEndian.AppendUint16(b, v)
}

// AppendU32 appends a big-endian uint32.
func AppendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

// AppendU64 appends a big-endian uint64.
func AppendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// AppendI64 appends an int64 as its two's-complement big-endian bits.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendF64 appends a float64 as its IEEE-754 bit pattern (big-endian).
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendBytes appends a u32 length prefix followed by the bytes.
func AppendBytes(b, v []byte) []byte {
	b = AppendU32(b, uint32(len(v)))
	return append(b, v...)
}

// AppendString appends a string as a length-prefixed byte section.
func AppendString(b []byte, v string) []byte {
	b = AppendU32(b, uint32(len(v)))
	return append(b, v...)
}

// AppendI32s appends a u32 count followed by each value big-endian.
func AppendI32s(b []byte, v []int32) []byte {
	b = AppendU32(b, uint32(len(v)))
	for _, x := range v {
		b = AppendU32(b, uint32(x))
	}
	return b
}

// AppendI64s appends a u32 count followed by each value big-endian.
func AppendI64s(b []byte, v []int64) []byte {
	b = AppendU32(b, uint32(len(v)))
	for _, x := range v {
		b = AppendI64(b, x)
	}
	return b
}

// AppendF64s appends a u32 count followed by each IEEE bit pattern.
func AppendF64s(b []byte, v []float64) []byte {
	b = AppendU32(b, uint32(len(v)))
	for _, x := range v {
		b = AppendF64(b, x)
	}
	return b
}

// Dec is a canonical-decoding cursor. The first failure sticks: every
// later read returns a zero value, so decode sequences read straight-line
// and check Err (or Close) once at the end.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a cursor over data.
func NewDec(data []byte) *Dec { return &Dec{b: data} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// fail records the first error with context.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", ErrCodec, fmt.Sprintf(format, args...), d.off)
	}
}

// take consumes n bytes, or fails.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// U16 reads a big-endian uint16.
func (d *Dec) U16() uint16 {
	v := d.take(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}

// U32 reads a big-endian uint32.
func (d *Dec) U32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

// U64 reads a big-endian uint64.
func (d *Dec) U64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Raw reads n bytes with no length prefix: a fixed-width field such as a
// 32-byte hash, or a section whose length was read separately. The
// returned slice aliases the input buffer (nil after a failure); callers
// that retain it must copy.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

// Bytes reads a length-prefixed byte section. The returned slice aliases
// the input buffer; callers that retain it must copy.
func (d *Dec) Bytes() []byte {
	n := d.U32()
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes()) }

// count reads a u32 element count and validates it against the remaining
// bytes at elemSize each, so a corrupt count cannot drive a huge
// allocation before the truncation is noticed.
func (d *Dec) count(elemSize int) int {
	n := int(d.U32())
	if d.err == nil && n*elemSize > d.Remaining() {
		d.fail("count %d needs %d bytes, have %d", n, n*elemSize, d.Remaining())
		return 0
	}
	if d.err != nil {
		return 0
	}
	return n
}

// I32s reads a count-prefixed []int32.
func (d *Dec) I32s() []int32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(d.U32())
	}
	return v
}

// I64s reads a count-prefixed []int64.
func (d *Dec) I64s() []int64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = d.I64()
	}
	return v
}

// F64s reads a count-prefixed []float64.
func (d *Dec) F64s() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.F64()
	}
	return v
}

// Close finishes a decode: it returns the sticky error if any, and
// otherwise fails if unconsumed bytes remain (a canonical encoding is
// consumed exactly).
func (d *Dec) Close() error {
	if d.err != nil {
		return d.err
	}
	if r := d.Remaining(); r != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, r)
	}
	return nil
}
