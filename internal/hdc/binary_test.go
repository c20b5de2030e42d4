package hdc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// TestClassifierBinaryRoundTrip pins the itr-model/v3 contract: the
// canonical binary form round-trips bit-identically (decode → re-encode
// yields the same bytes), the reloaded classifier predicts identically,
// and it can keep retraining.
func TestClassifierBinaryRoundTrip(t *testing.T) {
	cls, enc := trainToy(t)
	data, err := cls.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded := &Classifier{}
	if err := loaded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if loaded.Dim != cls.Dim || loaded.NClasses != cls.NClasses {
		t.Fatalf("reloaded header %d/%d", loaded.Dim, loaded.NClasses)
	}
	again, err := loaded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encode differs (%d vs %d bytes)", len(data), len(again))
	}
	for i, h := range enc {
		if a, b := cls.Predict(h), loaded.Predict(h); a != b {
			t.Fatalf("reloaded Predict(%d) = %d, want %d", i, b, a)
		}
	}
	loaded.Retrain(enc[:4], []int{0, 0, 0, 0}, 1)
}

// TestClassifierBinaryLayout pins the section layout byte for byte: two
// u32 dims, then per class an i64 add count and the count-prefixed
// accumulator, with no mode byte between header and classes.
func TestClassifierBinaryLayout(t *testing.T) {
	cls, _ := trainToy(t)
	data, err := cls.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := binary.BigEndian.AppendUint32(nil, uint32(cls.Dim))
	want = binary.BigEndian.AppendUint32(want, uint32(cls.NClasses))
	for _, acc := range cls.acc {
		want = binary.BigEndian.AppendUint64(want, uint64(acc.n))
		want = binary.BigEndian.AppendUint32(want, uint32(len(acc.counts)))
		for _, v := range acc.counts {
			want = binary.BigEndian.AppendUint32(want, uint32(v))
		}
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("section is %d bytes, want %d laid out as documented", len(data), len(want))
	}
}

func TestClassifierBinaryValidation(t *testing.T) {
	cls, _ := trainToy(t)
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
	// Well-framed encodings of invalid states are refused too.
	encode := func(dim, nClasses uint32, adds []int64, counts [][]int32) []byte {
		b := wire.AppendU32(nil, dim)
		b = wire.AppendU32(b, nClasses)
		for i := range adds {
			b = wire.AppendI64(b, adds[i])
			b = wire.AppendI32s(b, counts[i])
		}
		return b
	}
	for name, data := range map[string][]byte{
		"zero dim":         encode(0, 1, []int64{0}, [][]int32{{}}),
		"zero classes":     encode(2, 0, nil, nil),
		"short counts":     encode(3, 1, []int64{1}, [][]int32{{1, 2}}),
		"negative n":       encode(2, 1, []int64{-1}, [][]int32{{1, 2}}),
		"huge class count": encode(1, 1<<20, nil, nil),
		"max class count":  encode(1, 1<<32-1, []int64{0}, [][]int32{{0}}),
	} {
		var err error
		if alloc := allocBytes(func() { err = new(Classifier).UnmarshalBinary(data) }); alloc > 64<<10 {
			t.Errorf("%s: %d-byte input allocated %d bytes", name, len(data), alloc)
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
