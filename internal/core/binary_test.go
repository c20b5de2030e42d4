package core

import (
	"bytes"
	"testing"

	"repro/internal/wafer"
	"repro/internal/wire"
)

// trainSmallWafer fits a small HDC wafer classifier for codec tests.
func trainSmallWafer(t testing.TB) (*HDCWaferClassifier, *wafer.Dataset) {
	t.Helper()
	cfg := wafer.DefaultConfig()
	cfg.Size = 16
	train := wafer.GenerateDataset(6, cfg, 3)
	cls := NewHDCWaferClassifier(512, cfg.Size, 5, 3)
	if err := cls.Fit(train); err != nil {
		t.Fatal(err)
	}
	test := wafer.GenerateDataset(4, cfg, 4)
	return cls, test
}

// TestWaferClassifierBinaryRoundTrip pins the v2 contract for the composed
// model: canonical bytes round-trip bit-identically and the reloaded model
// predicts exactly like the original.
func TestWaferClassifierBinaryRoundTrip(t *testing.T) {
	cls, test := trainSmallWafer(t)
	data, err := cls.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded := &HDCWaferClassifier{}
	if err := loaded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	again, err := loaded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encode differs (%d vs %d bytes)", len(data), len(again))
	}
	if loaded.Dim != cls.Dim || loaded.Epochs != cls.Epochs || loaded.GridSize() != cls.GridSize() {
		t.Fatalf("reloaded header dim=%d epochs=%d grid=%d", loaded.Dim, loaded.Epochs, loaded.GridSize())
	}
	for i, m := range test.Maps {
		if a, b := cls.Predict(m), loaded.Predict(m); a != b {
			t.Fatalf("map %d: reloaded Predict = %d, want %d", i, b, a)
		}
	}
}

func TestWaferClassifierBinaryValidation(t *testing.T) {
	if _, err := (&HDCWaferClassifier{}).MarshalBinary(); err == nil {
		t.Error("unbuilt classifier serialized")
	}
	cls, _ := trainSmallWafer(t)
	data, err := cls.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 13 {
		if err := new(HDCWaferClassifier).UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if err := new(HDCWaferClassifier).UnmarshalBinary(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// An encoder whose dim disagrees with the classifier's is refused.
	enc, err := wafer.EncoderConfig{Dim: 2 * cls.Dim, Size: 16, Seed: 1}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	clsBytes, err := cls.cls.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := wire.AppendU32(enc, 5)
	bad = wire.AppendI64s(bad, nil)
	bad = wire.AppendBytes(bad, clsBytes)
	if err := new(HDCWaferClassifier).UnmarshalBinary(bad); err == nil {
		t.Error("encoder/classifier dim mismatch accepted")
	}
}
