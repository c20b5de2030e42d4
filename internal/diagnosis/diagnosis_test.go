package diagnosis

import (
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/logic"
)

func testPatterns(t testing.TB, n *circuit.Netlist) *logic.PatternSet {
	t.Helper()
	res, err := atpg.Run(n, atpg.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res.Patterns
}

func TestNoiselessDiagnosisTop1(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, err := NewWorkersWords(n, p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// With exhaustive patterns and no noise, every detectable fault must be
	// diagnosed at rank 1 (its own signature matches exactly).
	for fi := range d.Faults {
		if d.Dict[fi].FailBits() == 0 {
			continue // undetectable: nothing to diagnose
		}
		obs, err := Observe(n, p, d.Faults[fi], 0, rng.Float64)
		if err != nil {
			t.Fatal(err)
		}
		cands := d.Diagnose(obs, nil)
		if r := d.HitRank(cands, fi); r != 1 {
			t.Errorf("fault %s: rank %d, want 1", d.Faults[fi].Name(n), r)
		}
	}
}

func TestDiagnosisWithNoise(t *testing.T) {
	n := circuit.RippleAdder(6)
	p := testPatterns(t, n)
	d, err := NewWorkersWords(n, p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	cases := []int{}
	for fi := range d.Faults {
		if d.Dict[fi].FailBits() > 2 {
			cases = append(cases, fi)
		}
		if len(cases) == 40 {
			break
		}
	}
	acc, err := d.Evaluate(p, cases, 0.1, rng.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Top5Rate() < 0.6 {
		t.Errorf("noisy top-5 rate = %.2f, expected >= 0.6", acc.Top5Rate())
	}
	if acc.Cases != len(cases) {
		t.Errorf("cases = %d, want %d", acc.Cases, len(cases))
	}
}

func TestCandidatesSortedAndPruned(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, _ := NewWorkersWords(n, p, 0, 1)
	rng := rand.New(rand.NewSource(3))
	obs, _ := Observe(n, p, d.Faults[0], 0, rng.Float64)
	cands := d.Diagnose(obs, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates not sorted by score")
		}
	}
	for _, c := range cands {
		if c.Features[0] == 0 {
			t.Fatal("pruning failed: candidate with zero intersection")
		}
	}
}

func TestFeatureVectorShape(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, _ := NewWorkersWords(n, p, 0, 1)
	rng := rand.New(rand.NewSource(4))
	obs, _ := Observe(n, p, d.Faults[2], 0, rng.Float64)
	cands := d.Diagnose(obs, nil)
	for _, c := range cands {
		if len(c.Features) != NumFeatures {
			t.Fatalf("feature vector length %d, want %d", len(c.Features), NumFeatures)
		}
		if c.Features[3] < 0 || c.Features[3] > 1 {
			t.Fatalf("jaccard out of range: %f", c.Features[3])
		}
	}
}

func TestSelfSignatureJaccardIsOne(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, _ := NewWorkersWords(n, p, 0, 1)
	rng := rand.New(rand.NewSource(5))
	for fi := 0; fi < len(d.Faults); fi += 3 {
		if d.Dict[fi].FailBits() == 0 {
			continue
		}
		obs, _ := Observe(n, p, d.Faults[fi], 0, rng.Float64)
		fv := d.featureVector(d.Dict[fi], obs, d.Faults[fi])
		if fv[3] != 1.0 {
			t.Errorf("fault %d: self jaccard = %f", fi, fv[3])
		}
		if fv[1] != 0 || fv[2] != 0 {
			t.Errorf("fault %d: self mismatches (%f,%f)", fi, fv[1], fv[2])
		}
	}
}

func TestTrainingSetLabels(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, _ := NewWorkersWords(n, p, 0, 1)
	rng := rand.New(rand.NewSource(6))
	sample := []int{0, 1, 2, 3}
	ts, err := d.TrainingSet(p, sample, 0, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Fatal("empty training set")
	}
	pos := 0
	for _, ex := range ts {
		if ex.Label == 1 {
			pos++
		}
		if len(ex.Features) != NumFeatures {
			t.Fatal("bad feature length in training set")
		}
	}
	if pos < len(sample) {
		t.Errorf("positive examples = %d, want >= %d", pos, len(sample))
	}
}

func TestObserveNoiseReducesFails(t *testing.T) {
	n := circuit.RippleAdder(4)
	p := testPatterns(t, n)
	d, _ := NewWorkersWords(n, p, 0, 1)
	var fi int
	for i := range d.Faults {
		if d.Dict[i].FailBits() > 10 {
			fi = i
			break
		}
	}
	rng := rand.New(rand.NewSource(7))
	clean, _ := Observe(n, p, d.Faults[fi], 0, rng.Float64)
	noisy, _ := Observe(n, p, d.Faults[fi], 0.5, rng.Float64)
	cnt := func(o *Observation) int {
		c := 0
		for _, ws := range o.Bits {
			for _, w := range ws {
				c += logic.PopCount(w)
			}
		}
		return c
	}
	if cnt(noisy) >= cnt(clean) {
		t.Errorf("noise did not reduce failing bits: %d vs %d", cnt(noisy), cnt(clean))
	}
}

func TestEquivalentFaultCountsAsHit(t *testing.T) {
	// Two faults with identical signatures: diagnosis cannot distinguish
	// them, so rank must treat either as a hit.
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, _ := NewWorkersWords(n, p, 0, 1)
	// find two distinct faults with identical signatures, if any
	for i := range d.Faults {
		for j := i + 1; j < len(d.Faults); j++ {
			if d.Dict[i].FailBits() > 0 && sameSignature(d.Dict[i], d.Dict[j]) {
				rng := rand.New(rand.NewSource(8))
				obs, _ := Observe(n, p, d.Faults[i], 0, rng.Float64)
				cands := d.Diagnose(obs, nil)
				if r := d.HitRank(cands, j); r == 0 || r > 2 {
					t.Errorf("equivalent fault rank = %d", r)
				}
				return
			}
		}
	}
	t.Skip("no equivalent fault pair in collapsed universe")
}

func BenchmarkDiagnose(b *testing.B) {
	n := circuit.ArrayMultiplier(4)
	res, err := atpg.Run(n, atpg.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewWorkersWords(n, res.Patterns, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	obs, _ := Observe(n, res.Patterns, d.Faults[10], 0, rng.Float64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Diagnose(obs, nil)
	}
}
