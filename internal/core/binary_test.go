package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/hdc"
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

// TestWaferClassifierBinaryRoundTrip pins the v3 contract for the composed
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

// TestWaferClassifierBinaryAllocBound: a payload is decoded from bytes a
// replication peer may have forged, and the encoder it describes is built
// up front, so a payload that declares a grid above wafer.MaxGridSize (or
// a classifier without one class per wafer class) is refused before the
// encoder's basis is allocated.
func TestWaferClassifierBinaryAllocBound(t *testing.T) {
	payload := func(size, nClasses int) []byte {
		b, err := wafer.EncoderConfig{Dim: 64, Size: size, Seed: 1}.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		b = wire.AppendU32(b, 0)
		b = wire.AppendI64s(b, nil)
		cls, err := hdc.NewClassifier(64, nClasses).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return wire.AppendBytes(b, cls)
	}
	if err := new(HDCWaferClassifier).UnmarshalBinary(payload(16, int(wafer.NumClasses))); err != nil {
		t.Fatalf("well-formed payload refused: %v", err)
	}
	for name, data := range map[string][]byte{
		"grid above MaxGridSize": payload(wafer.MaxGridSize+1, int(wafer.NumClasses)),
		"grid 1024":              payload(1024, int(wafer.NumClasses)),
		"too few classes":        payload(16, 2),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := new(HDCWaferClassifier).UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
			t.Errorf("%s: %d-byte payload allocated %d bytes", name, len(data), alloc)
		}
	}
}
