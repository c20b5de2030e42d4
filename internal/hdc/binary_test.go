package hdc

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/wire"
)

// TestClassifierBinaryRoundTrip pins the itr-model/v2 contract: the
// canonical binary form round-trips bit-identically (decode → re-encode
// yields the same bytes), the reloaded classifier predicts identically in
// both modes, and it can keep retraining.
func TestClassifierBinaryRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModeInteger, ModeBinary} {
		cls, enc := trainToy(t, mode)
		data, err := cls.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		loaded := &Classifier{}
		if err := loaded.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if loaded.Dim != cls.Dim || loaded.NClasses != cls.NClasses || loaded.Mode != mode {
			t.Fatalf("mode %v: reloaded header %d/%d/%v", mode, loaded.Dim, loaded.NClasses, loaded.Mode)
		}
		again, err := loaded.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("mode %v: re-encode differs (%d vs %d bytes)", mode, len(data), len(again))
		}
		for i, h := range enc {
			if a, b := cls.Predict(h), loaded.Predict(h); a != b {
				t.Fatalf("mode %v: reloaded Predict(%d) = %d, want %d", mode, i, b, a)
			}
		}
		loaded.Retrain(enc[:4], []int{0, 0, 0, 0}, 1)
	}
}

func TestClassifierBinaryValidation(t *testing.T) {
	cls, _ := trainToy(t, ModeInteger)
	good, err := cls.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must fail cleanly, never panic.
	for cut := 0; cut < len(good); cut += 7 {
		if err := new(Classifier).UnmarshalBinary(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing bytes are refused (canonical encodings are consumed exactly).
	if err := new(Classifier).UnmarshalBinary(append(append([]byte(nil), good...), 0)); !errors.Is(err, wire.ErrCodec) {
		t.Errorf("trailing byte: err = %v, want ErrCodec", err)
	}
	// A corrupt mode byte is a validation error.
	bad := append([]byte(nil), good...)
	bad[8] = 9 // mode lives after the two u32 dims
	if err := new(Classifier).UnmarshalBinary(bad); err == nil {
		t.Error("mode 9 accepted")
	}
	// Well-framed encodings of invalid states are refused too.
	encode := func(dim, nClasses uint32, adds []int64, counts [][]int32) []byte {
		b := wire.AppendU32(nil, dim)
		b = wire.AppendU32(b, nClasses)
		b = wire.AppendU8(b, uint8(ModeInteger))
		for i := range adds {
			b = wire.AppendI64(b, adds[i])
			b = wire.AppendI32s(b, counts[i])
		}
		return b
	}
	for name, data := range map[string][]byte{
		"zero dim":     encode(0, 1, []int64{0}, [][]int32{{}}),
		"zero classes": encode(2, 0, nil, nil),
		"short counts": encode(3, 1, []int64{1}, [][]int32{{1, 2}}),
		"negative n":   encode(2, 1, []int64{-1}, [][]int32{{1, 2}}),
	} {
		if err := new(Classifier).UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
