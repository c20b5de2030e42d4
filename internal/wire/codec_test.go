package wire

import (
	"errors"
	"math"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 7)
	b = AppendU16(b, 0xBEEF)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 1<<63|42)
	b = AppendI64(b, -12345)
	b = AppendF64(b, -0.0)
	b = AppendF64(b, math.NaN())
	b = AppendString(b, "kind/name")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendI32s(b, []int32{-1, 0, math.MaxInt32, math.MinInt32})
	b = AppendI64s(b, []int64{-9, 9})
	b = AppendF64s(b, []float64{1.5, math.Inf(-1)})
	b = append(b, "0123456789abcdef0123456789abcdef"...)

	d := NewDec(b)
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U16(); v != 0xBEEF {
		t.Errorf("U16 = %x", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %x", v)
	}
	if v := d.U64(); v != 1<<63|42 {
		t.Errorf("U64 = %x", v)
	}
	if v := d.I64(); v != -12345 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.F64(); math.Float64bits(v) != math.Float64bits(-0.0) {
		t.Errorf("F64 -0.0 bits = %x", math.Float64bits(v))
	}
	if v := d.F64(); math.Float64bits(v) != math.Float64bits(math.NaN()) {
		t.Errorf("F64 NaN bits = %x", math.Float64bits(v))
	}
	if v := d.String(); v != "kind/name" {
		t.Errorf("String = %q", v)
	}
	if v := d.Bytes(); len(v) != 3 || v[0] != 1 || v[2] != 3 {
		t.Errorf("Bytes = %v", v)
	}
	if v := d.I32s(); len(v) != 4 || v[3] != math.MinInt32 {
		t.Errorf("I32s = %v", v)
	}
	if v := d.I64s(); len(v) != 2 || v[0] != -9 {
		t.Errorf("I64s = %v", v)
	}
	if v := d.F64s(); len(v) != 2 || !math.IsInf(v[1], -1) {
		t.Errorf("F64s = %v", v)
	}
	if v := d.Raw(32); string(v) != "0123456789abcdef0123456789abcdef" {
		t.Errorf("Raw = %q", v)
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestCodecTruncation: every proper prefix of a valid encoding must decode
// to ErrCodec, never panic or succeed.
func TestCodecTruncation(t *testing.T) {
	var b []byte
	b = AppendString(b, "hello")
	b = AppendF64s(b, []float64{1, 2, 3})
	b = AppendI64(b, -1)
	b = AppendU16(b, 9)
	b = append(b, 1, 2, 3)
	for cut := 0; cut < len(b); cut++ {
		d := NewDec(b[:cut])
		_ = d.String()
		d.F64s()
		d.I64()
		d.U16()
		d.Raw(3)
		if err := d.Close(); !errors.Is(err, ErrCodec) {
			t.Errorf("cut at %d: err = %v, want ErrCodec", cut, err)
		}
	}
}

func TestCodecTrailingBytes(t *testing.T) {
	b := AppendU32(nil, 5)
	b = append(b, 0xFF)
	d := NewDec(b)
	d.U32()
	if err := d.Close(); !errors.Is(err, ErrCodec) {
		t.Errorf("trailing byte: err = %v, want ErrCodec", err)
	}
}

// TestCodecHugeCount: a corrupt count field must fail before allocating,
// not attempt a multi-gigabyte make().
func TestCodecHugeCount(t *testing.T) {
	b := AppendU32(nil, 0xFFFFFFFF)
	d := NewDec(b)
	if v := d.F64s(); v != nil {
		t.Errorf("F64s = %d elems, want nil", len(v))
	}
	if err := d.Err(); !errors.Is(err, ErrCodec) {
		t.Errorf("err = %v, want ErrCodec", err)
	}
}

// TestCodecStickyError: after the first failure every later read returns a
// zero value and the first error is preserved.
func TestCodecStickyError(t *testing.T) {
	d := NewDec([]byte{0x01})
	d.U64() // fails: needs 8 bytes
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	if v := d.String(); v != "" {
		t.Errorf("String after error = %q", v)
	}
	if d.Err() != first {
		t.Errorf("error replaced: %v", d.Err())
	}
}
