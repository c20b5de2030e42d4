package outlier

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/wire"
)

// fittedScorers returns one fitted instance of every serializable scorer.
func fittedScorers(t *testing.T) []Scorer {
	t.Helper()
	lot := Synthesize(DefaultLotConfig(), 7)
	ref := healthyRef(lot)
	out := []Scorer{&ZScorePAT{}, &Mahalanobis{}, &KNNOutlier{K: 5}}
	for _, s := range out {
		if err := s.Fit(ref); err != nil {
			t.Fatalf("fit %T: %v", s, err)
		}
	}
	return out
}

// TestScorerBinaryRoundTrip pins the itr-model/v3 contract for every
// serializable scorer: canonical bytes round-trip bit-identically and the
// reloaded scorer produces the same float64 score bits on every device.
func TestScorerBinaryRoundTrip(t *testing.T) {
	lot := Synthesize(DefaultLotConfig(), 8)
	for _, s := range fittedScorers(t) {
		data, err := AppendScorerBinary(nil, s)
		if err != nil {
			t.Fatalf("%T: %v", s, err)
		}
		loaded, err := UnmarshalScorerBinary(data)
		if err != nil {
			t.Fatalf("%T: %v", s, err)
		}
		again, err := AppendScorerBinary(nil, loaded)
		if err != nil {
			t.Fatalf("%T re-encode: %v", s, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%T: re-encode differs (%d vs %d bytes)", s, len(data), len(again))
		}
		for i, x := range lot.X {
			a, b := s.Score(x), loaded.Score(x)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%T: device %d score %v vs %v (bit mismatch)", s, i, a, b)
			}
		}
	}
}

func TestScorerBinaryValidation(t *testing.T) {
	if _, err := UnmarshalScorerBinary(nil); err == nil {
		t.Error("empty envelope accepted")
	}
	if _, err := UnmarshalScorerBinary([]byte{99}); err == nil {
		t.Error("unknown method code accepted")
	}
	for _, s := range fittedScorers(t) {
		data, err := AppendScorerBinary(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(data); cut += 5 {
			if _, err := UnmarshalScorerBinary(data[:cut]); err == nil {
				t.Fatalf("%T: truncation at %d accepted", s, cut)
			}
		}
		if _, err := UnmarshalScorerBinary(append(append([]byte(nil), data...), 0)); err == nil {
			t.Errorf("%T: trailing byte accepted", s)
		}
	}
	// A refit-only scorer has no serialized form.
	if _, err := AppendScorerBinary(nil, &PCAResidual{}); err == nil {
		t.Error("PCAResidual serialized")
	}
	// A zero MAD must be refused on load (division guard).
	z := &ZScorePAT{med: []float64{0}, mad: []float64{0}}
	data := wire.AppendF64s(nil, z.med)
	data = wire.AppendF64s(data, z.mad)
	if err := new(ZScorePAT).UnmarshalBinary(data); err == nil {
		t.Error("zero MAD accepted")
	}
	// A knn state must keep 1 <= k <= reference devices.
	for _, k := range []uint32{0, 2} {
		data := wire.AppendU32(nil, k)
		data = wire.AppendU32(data, 1) // rows
		data = wire.AppendU32(data, 1) // cols
		data = wire.AppendF64s(data, []float64{1})
		if err := new(KNNOutlier).UnmarshalBinary(data); err == nil {
			t.Errorf("knn k=%d over 1 reference device accepted", k)
		}
	}
}

// TestDim pins the fitted test count of every serializable scorer and the
// refusal of state no vector could be scored against.
func TestDim(t *testing.T) {
	lot := Synthesize(DefaultLotConfig(), 7)
	for _, s := range fittedScorers(t) {
		if d, err := Dim(s); err != nil || d != len(lot.X[0]) {
			t.Errorf("%T: Dim = %d, %v; want %d", s, d, err, len(lot.X[0]))
		}
	}
	ragged := &KNNOutlier{K: 1}
	if err := ragged.Fit([][]float64{{0, 1}, {0}}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scorer{ragged, &ZScorePAT{}, &PCAResidual{}} {
		if d, err := Dim(s); err == nil {
			t.Errorf("%T: Dim = %d, want an error", s, d)
		}
	}
}
