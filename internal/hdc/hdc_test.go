package hdc

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

const dim = 1024

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestRandHVBalanced(t *testing.T) {
	h := RandHV(dim, rng())
	pc := h.Popcount()
	if pc < dim/2-dim/8 || pc > dim/2+dim/8 {
		t.Errorf("popcount = %d, not balanced for dim %d", pc, dim)
	}
}

func TestRandomVectorsQuasiOrthogonal(t *testing.T) {
	r := rng()
	a, b := RandHV(dim, r), RandHV(dim, r)
	d := a.Hamming(b)
	if d < dim/2-dim/8 || d > dim/2+dim/8 {
		t.Errorf("random vectors at distance %d, expected ~%d", d, dim/2)
	}
}

func TestXorProperties(t *testing.T) {
	r := rng()
	a, b := RandHV(dim, r), RandHV(dim, r)
	// Binding is its own inverse.
	if got := a.Xor(b).Xor(b); got.Hamming(a) != 0 {
		t.Error("xor not involutive")
	}
	// Binding preserves distance.
	c := RandHV(dim, r)
	if a.Hamming(b) != a.Xor(c).Hamming(b.Xor(c)) {
		t.Error("binding does not preserve distance")
	}
	// In place variant agrees.
	ac := a.Clone()
	ac.XorInPlace(b)
	if ac.Hamming(a.Xor(b)) != 0 {
		t.Error("XorInPlace differs from Xor")
	}
}

func TestBitOps(t *testing.T) {
	h := NewHV(dim)
	h.SetBit(0, true)
	h.SetBit(100, true)
	h.SetBit(dim-1, true)
	if !h.Bit(0) || !h.Bit(100) || !h.Bit(dim-1) || h.Bit(5) {
		t.Error("bit ops broken")
	}
	h.SetBit(100, false)
	if h.Bit(100) {
		t.Error("clear failed")
	}
	if h.Popcount() != 2 {
		t.Errorf("popcount = %d", h.Popcount())
	}
}

func TestBundlerMajority(t *testing.T) {
	r := rng()
	a, b, c := RandHV(dim, r), RandHV(dim, r), RandHV(dim, r)
	bd := NewBundler(dim)
	bd.Add(a)
	bd.Add(b)
	bd.Add(c)
	m := bd.Binarize()
	// The majority vector is closer to each constituent than random.
	for i, v := range []HV{a, b, c} {
		if d := m.Hamming(v); d > dim/2 {
			t.Errorf("bundle distance to constituent %d = %d", i, d)
		}
	}
	if bd.N() != 3 {
		t.Errorf("N = %d", bd.N())
	}
}

func TestBundlerWeighted(t *testing.T) {
	r := rng()
	a, b := RandHV(dim, r), RandHV(dim, r)
	bd := NewBundler(dim)
	bd.AddWeighted(a, 5)
	bd.AddWeighted(b, 1)
	m := bd.Binarize()
	if m.Hamming(a) != 0 {
		t.Error("weight-5 vector must dominate a single opposing vote")
	}
}

func TestItemMemoryDeterministic(t *testing.T) {
	m1 := NewItemMemory(dim, 7)
	m2 := NewItemMemory(dim, 7)
	if m1.Get(42).Hamming(m2.Get(42)) != 0 {
		t.Error("same seed/id must agree")
	}
	if d := m1.Get(1).Hamming(m1.Get(2)); d < dim/3 {
		t.Errorf("distinct ids too close: %d", d)
	}
	// Cached: same pointer semantics (same contents at least).
	if m1.Get(42).Hamming(m1.Get(42)) != 0 {
		t.Error("cache broken")
	}
}

func TestLevelsSimilarityStructure(t *testing.T) {
	l := NewLevels(dim, 16, 0, 1, 3)
	// Adjacent levels are close; extremes are ~orthogonal.
	dAdj := l.VecAt(0).Hamming(l.VecAt(1))
	dFar := l.VecAt(0).Hamming(l.VecAt(15))
	if dAdj >= dFar {
		t.Errorf("level distances not monotone: adj %d far %d", dAdj, dFar)
	}
	if dFar < dim/3 {
		t.Errorf("extreme levels too close: %d", dFar)
	}
	// Distance grows monotonically with level separation.
	prev := 0
	for i := 1; i < 16; i++ {
		d := l.VecAt(0).Hamming(l.VecAt(i))
		if d < prev {
			t.Fatalf("level distance decreased at %d", i)
		}
		prev = d
	}
}

func TestLevelsQuantize(t *testing.T) {
	l := NewLevels(dim, 10, 0, 1, 1)
	if l.Quantize(-5) != 0 {
		t.Error("below range must clamp to 0")
	}
	if l.Quantize(5) != 9 {
		t.Error("above range must clamp to max")
	}
	if l.Quantize(0.05) != 0 || l.Quantize(0.95) != 9 {
		t.Error("interior quantization wrong")
	}
	if l.NumLevels() != 10 {
		t.Error("NumLevels wrong")
	}
}

func TestLevelsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewLevels(dim, 1, 0, 1, 1) },
		func() { NewLevels(dim, 4, 1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// classifier on a synthetic separable task: class = quadrant of a 2D point
// encoded as bind(xLevel, yLevel).
func quadrantData(n int, seed int64) ([]HV, []int) {
	r := rand.New(rand.NewSource(seed))
	lx := NewLevels(dim, 32, -1, 1, 11)
	ly := NewLevels(dim, 32, -1, 1, 22)
	enc := make([]HV, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		x, y := r.Float64()*2-1, r.Float64()*2-1
		enc[i] = lx.Vec(x).Xor(ly.Vec(y))
		q := 0
		if x >= 0 {
			q |= 1
		}
		if y >= 0 {
			q |= 2
		}
		labels[i] = q
	}
	return enc, labels
}

func TestClassifierQuadrants(t *testing.T) {
	enc, labels := quadrantData(400, 5)
	c := NewClassifier(dim, 4)
	if err := c.Train(enc, labels); err != nil {
		t.Fatal(err)
	}
	c.Retrain(enc, labels, 10)
	tenc, tlabels := quadrantData(200, 6)
	correct := 0
	for i := range tenc {
		if c.Predict(tenc[i]) == tlabels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(tenc))
	if acc < 0.8 {
		t.Errorf("quadrant accuracy = %f", acc)
	}
}

func TestRetrainReducesErrors(t *testing.T) {
	enc, labels := quadrantData(300, 7)
	c := NewClassifier(dim, 4)
	if err := c.Train(enc, labels); err != nil {
		t.Fatal(err)
	}
	errs := c.Retrain(enc, labels, 15)
	if len(errs) == 0 {
		t.Fatal("no epochs recorded")
	}
	if errs[len(errs)-1] > errs[0] {
		t.Errorf("retraining increased errors: %v", errs)
	}
}

func TestClassifierValidation(t *testing.T) {
	c := NewClassifier(dim, 2)
	if err := c.Train([]HV{NewHV(dim)}, []int{5}); err == nil {
		t.Error("out-of-range label must fail")
	}
	if err := c.Train([]HV{NewHV(dim)}, []int{0, 1}); err == nil {
		t.Error("length mismatch must fail")
	}
}

// Property: Hamming distance is a metric (symmetry + triangle inequality on
// random triples).
func TestHammingMetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := RandHV(256, r), RandHV(256, r), RandHV(256, r)
		if a.Hamming(b) != b.Hamming(a) {
			return false
		}
		return a.Hamming(c) <= a.Hamming(b)+b.Hamming(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOddDimensionTailMasked(t *testing.T) {
	d := 100
	r := rng()
	h := RandHV(d, r)
	for i := d; i < len(h)*64; i++ {
		if h[i/64]>>(uint(i)%64)&1 == 1 {
			t.Fatal("bits beyond dimension set")
		}
	}
}

func BenchmarkHamming(b *testing.B) {
	r := rng()
	x, y := RandHV(8192, r), RandHV(8192, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Hamming(y)
	}
}

func BenchmarkBundleAdd(b *testing.B) {
	r := rng()
	h := RandHV(8192, r)
	bd := NewBundler(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.Add(h)
	}
}

// trainToy builds a small fitted classifier over random class clusters.
func trainToy(t testing.TB) (*Classifier, []HV) {
	t.Helper()
	const (
		dim      = 512
		nClasses = 4
		perClass = 12
	)
	rng := rand.New(rand.NewSource(5))
	centers := make([]HV, nClasses)
	for i := range centers {
		centers[i] = RandHV(dim, rng)
	}
	var enc []HV
	var labels []int
	for c := 0; c < nClasses; c++ {
		for k := 0; k < perClass; k++ {
			h := centers[c].Clone()
			// Flip a few bits to create intra-class variation.
			for f := 0; f < dim/16; f++ {
				i := rng.Intn(dim)
				h.SetBit(i, !h.Bit(i))
			}
			enc = append(enc, h)
			labels = append(labels, c)
		}
	}
	cls := NewClassifier(dim, nClasses)
	if err := cls.Train(enc, labels); err != nil {
		t.Fatal(err)
	}
	cls.Retrain(enc, labels, 5)
	return cls, enc
}

// TestPredictConcurrent hammers one fitted classifier from 8 goroutines
// under the race detector: Predict is documented safe for concurrent
// readers (the serving hot path shares one model across handlers).
func TestPredictConcurrent(t *testing.T) {
	cls, enc := trainToy(t)
	want := make([]int, len(enc))
	for i, h := range enc {
		want[i] = cls.Predict(h)
	}
	var wg sync.WaitGroup
	mismatch := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, h := range enc {
				if got := cls.Predict(h); got != want[i] {
					select {
					case mismatch <- "concurrent Predict diverged from serial":
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(mismatch)
	for m := range mismatch {
		t.Error(m)
	}
}
