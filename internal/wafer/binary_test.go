package wafer

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncoderConfigBinaryRoundTrip pins the v3 rebuild recipe: the config
// round-trips bit-identically and the rebuilt encoder produces the exact
// hypervector of the original for the same map.
func TestEncoderConfigBinaryRoundTrip(t *testing.T) {
	enc := NewEncoder(1024, 16, 77)
	cfg := enc.Config()
	data, err := cfg.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var loaded EncoderConfig
	if err := loaded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if loaded != cfg {
		t.Fatalf("round trip %+v, want %+v", loaded, cfg)
	}
	again, err := loaded.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encode differs")
	}
	rebuilt, err := NewEncoderFromConfig(loaded)
	if err != nil {
		t.Fatal(err)
	}
	cfgGen := DefaultConfig()
	cfgGen.Size = 16
	m := Generate(Scratch, cfgGen, rand.New(rand.NewSource(3)))
	a, b := enc.Encode(m), rebuilt.Encode(m)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rebuilt encoder differs at word %d", i)
		}
	}
}

func TestEncoderConfigBinaryValidation(t *testing.T) {
	data, err := EncoderConfig{Dim: 512, Size: 8, Seed: -1}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := new(EncoderConfig).UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if err := new(EncoderConfig).UnmarshalBinary(append(data, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}
