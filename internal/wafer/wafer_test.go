package wafer

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hdc"
	"repro/internal/ml"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestGenerateShape(t *testing.T) {
	m := Generate(Center, DefaultConfig(), rng())
	if m.Size != 64 || len(m.Cells) != 64*64 {
		t.Fatalf("map shape %d/%d", m.Size, len(m.Cells))
	}
	// Corners are off-die, center is on-die.
	if m.At(0, 0) != OffDie || m.At(63, 63) != OffDie {
		t.Error("corners must be off-die")
	}
	if m.At(32, 32) == OffDie {
		t.Error("center must be on-die")
	}
	if m.Label != Center {
		t.Error("label not recorded")
	}
}

func TestClassFailFractions(t *testing.T) {
	r := rng()
	cfg := DefaultConfig()
	frac := func(c Class) float64 {
		s := 0.0
		for i := 0; i < 5; i++ {
			s += Generate(c, cfg, r).FailFraction()
		}
		return s / 5
	}
	if f := frac(None); f > 0.05 {
		t.Errorf("None fail fraction = %f", f)
	}
	if f := frac(NearFull); f < 0.7 {
		t.Errorf("NearFull fail fraction = %f", f)
	}
	fNone, fCenter, fRandom := frac(None), frac(Center), frac(Random)
	if !(fNone < fCenter && fCenter < fRandom+0.3) {
		t.Errorf("implausible ordering: none %f center %f random %f", fNone, fCenter, fRandom)
	}
}

func TestCenterPatternIsCentral(t *testing.T) {
	r := rng()
	m := Generate(Center, DefaultConfig(), r)
	n := m.Size
	cx := float64(n-1) / 2
	radius := float64(n)/2 - 0.5
	var inFail, inTot, outFail, outTot float64
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			v := m.At(row, col)
			if v == OffDie {
				continue
			}
			d := math.Hypot(float64(col)-cx, float64(row)-cx)
			if d < 0.2*radius {
				inTot++
				if v == Fail {
					inFail++
				}
			} else if d > 0.6*radius {
				outTot++
				if v == Fail {
					outFail++
				}
			}
		}
	}
	if inFail/inTot < 5*(outFail/outTot+0.01) {
		t.Errorf("center density %f not concentrated vs edge %f", inFail/inTot, outFail/outTot)
	}
}

func TestEdgeRingPattern(t *testing.T) {
	r := rng()
	m := Generate(EdgeRing, DefaultConfig(), r)
	n := m.Size
	cx := float64(n-1) / 2
	radius := float64(n)/2 - 0.5
	var edgeFail, edgeTot, midFail, midTot float64
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			v := m.At(row, col)
			if v == OffDie {
				continue
			}
			d := math.Hypot(float64(col)-cx, float64(row)-cx)
			if d > 0.92*radius {
				edgeTot++
				if v == Fail {
					edgeFail++
				}
			} else if d < 0.5*radius {
				midTot++
				if v == Fail {
					midFail++
				}
			}
		}
	}
	if edgeFail/edgeTot < 0.5 {
		t.Errorf("edge ring density = %f", edgeFail/edgeTot)
	}
	if midFail/midTot > 0.1 {
		t.Errorf("interior density = %f for edge-ring", midFail/midTot)
	}
}

func TestGenerateDatasetStratified(t *testing.T) {
	d := GenerateDataset(5, DefaultConfig(), 3)
	if len(d.Maps) != 5*int(NumClasses) {
		t.Fatalf("dataset size %d", len(d.Maps))
	}
	counts := map[int]int{}
	for _, l := range d.Labels {
		counts[l]++
	}
	for c := 0; c < int(NumClasses); c++ {
		if counts[c] != 5 {
			t.Errorf("class %d count %d", c, counts[c])
		}
	}
	// First NumClasses samples contain all classes (interleaved).
	seen := map[int]bool{}
	for i := 0; i < int(NumClasses); i++ {
		seen[d.Labels[i]] = true
	}
	if len(seen) != int(NumClasses) {
		t.Error("dataset not interleaved")
	}
}

func TestFeaturesShapeAndRange(t *testing.T) {
	r := rng()
	for c := Class(0); c < NumClasses; c++ {
		f := Features(Generate(c, DefaultConfig(), r))
		if len(f) != NumFeatures {
			t.Fatalf("feature length %d", len(f))
		}
		for i, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1.0001 {
				t.Errorf("class %v feature %d out of range: %f", c, i, v)
			}
		}
	}
}

func TestScratchElongationHigh(t *testing.T) {
	r := rng()
	elong := func(c Class) float64 {
		s := 0.0
		for i := 0; i < 10; i++ {
			f := Features(Generate(c, DefaultConfig(), r))
			s += f[NumFeatures-1]
		}
		return s / 10
	}
	if es, ec := elong(Scratch), elong(Center); es <= ec {
		t.Errorf("scratch elongation %f not above center %f", es, ec)
	}
}

func TestFeaturesSeparateClassesLinearly(t *testing.T) {
	// A forest on the classical features must beat chance by a wide margin —
	// guards against degenerate feature extraction.
	d := GenerateDataset(30, DefaultConfig(), 7)
	X := d.FeatureMatrix()
	train := &ml.Dataset{X: X, Labels: d.Labels}
	train.Shuffle(1)
	cut := len(X) - int(math.Round(0.3*float64(len(X)))) // hold out 30 %
	f := ml.NewForestClassifier(30, 10, 1)
	if err := f.Fit(train.X[:cut], train.Labels[:cut]); err != nil {
		t.Fatal(err)
	}
	acc := ml.Accuracy(train.Labels[cut:], ml.ClassifyAll(f, train.X[cut:]))
	if acc < 0.7 {
		t.Errorf("forest on wafer features accuracy = %f", acc)
	}
}

func TestEncoderDiscriminates(t *testing.T) {
	// Mean within-class Hamming distance must fall below the mean
	// cross-class distance over a sample of maps (individual pairs can
	// overlap because pattern parameters are themselves random).
	r := rng()
	enc := NewEncoder(2048, 64, 9)
	classes := []Class{Center, EdgeRing, Scratch, NearFull}
	const perClass = 6
	var vecs []hdc.HV
	var labels []Class
	for _, c := range classes {
		for i := 0; i < perClass; i++ {
			vecs = append(vecs, enc.Encode(Generate(c, DefaultConfig(), r)))
			labels = append(labels, c)
		}
	}
	var same, cross, ns, nc float64
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			d := 0.0 // Hamming distance
			for k := range vecs[i] {
				d += float64(bits.OnesCount64(vecs[i][k] ^ vecs[j][k]))
			}
			if labels[i] == labels[j] {
				same += d
				ns++
			} else {
				cross += d
				nc++
			}
		}
	}
	if same/ns >= cross/nc {
		t.Errorf("mean same-class distance %.0f not below cross-class %.0f", same/ns, cross/nc)
	}
}

func TestEncodeEmptyMap(t *testing.T) {
	enc := NewEncoder(512, 8, 1)
	m := &Map{Size: 8, Cells: make([]uint8, 64)} // all off-die
	for _, w := range enc.Encode(m) {
		if w != 0 {
			t.Fatal("empty map must encode to zero vector")
		}
	}
}

func TestClassString(t *testing.T) {
	if Center.String() != "Center" || EdgeLoc.String() != "Edge-Loc" {
		t.Error("class names wrong")
	}
	if Class(99).String() == "" {
		t.Error("unknown class must render")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d1 := GenerateDataset(2, DefaultConfig(), 42)
	d2 := GenerateDataset(2, DefaultConfig(), 42)
	for i := range d1.Maps {
		for j := range d1.Maps[i].Cells {
			if d1.Maps[i].Cells[j] != d2.Maps[i].Cells[j] {
				t.Fatal("same-seed datasets differ")
			}
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	r := rng()
	enc := NewEncoder(2048, 64, 9)
	m := Generate(Scratch, DefaultConfig(), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(m)
	}
}

func BenchmarkFeatures(b *testing.B) {
	r := rng()
	m := Generate(Scratch, DefaultConfig(), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Features(m)
	}
}

func TestGenerateMixed(t *testing.T) {
	r := rng()
	cfg := DefaultConfig()
	m := GenerateMixed(Center, Scratch, cfg, r)
	if !m.IsMixed || m.Label != Center || m.MixedWith != Scratch {
		t.Fatalf("mixed metadata: %+v", m.Label)
	}
	// Mixed map must fail at least as much as a pure map of either class
	// on average (superposition adds fails).
	pureSum, mixSum := 0.0, 0.0
	for i := 0; i < 8; i++ {
		pureSum += Generate(Center, cfg, r).FailFraction()
		mixSum += GenerateMixed(Center, Scratch, cfg, r).FailFraction()
	}
	if mixSum <= pureSum {
		t.Errorf("mixed maps not denser: %.3f vs %.3f", mixSum/8, pureSum/8)
	}
}

func TestMixedMapsClassifyAsConstituent(t *testing.T) {
	// A classifier trained on pure classes, shown a mixed map, should
	// usually answer with one of the two constituents — the sanity property
	// the mixed-type literature starts from.
	cfg := DefaultConfig()
	cfg.Size = 32
	train := GenerateDataset(25, cfg, 1)
	f := ml.NewForestClassifier(40, 12, 1)
	if err := f.Fit(train.FeatureMatrix(), train.Labels); err != nil {
		t.Fatal(err)
	}
	r := rng()
	hits, total := 0, 0
	pairs := [][2]Class{{Center, Scratch}, {EdgeRing, Loc}, {Donut, Scratch}}
	for _, p := range pairs {
		for i := 0; i < 10; i++ {
			m := GenerateMixed(p[0], p[1], cfg, r)
			pred := Class(f.Predict(Features(m)))
			total++
			if pred == p[0] || pred == p[1] {
				hits++
			}
		}
	}
	if float64(hits)/float64(total) < 0.5 {
		t.Errorf("only %d/%d mixed maps classified as a constituent", hits, total)
	}
}

// TestEncodeConcurrent hammers one encoder from 8 goroutines under the
// race detector: Encode is documented safe for concurrent use (the serving
// hot path encodes maps of many simultaneous requests), and concurrent
// results must stay bit-identical to serial ones.
func TestEncodeConcurrent(t *testing.T) {
	cfg := Config{Size: 24, Noise: 0.02, PatternP: 0.85}
	ds := GenerateDataset(3, cfg, 9)
	enc := NewEncoder(1024, cfg.Size, 9)
	want := enc.EncodeAll(ds) // also warms the base-bundle cache path

	// A fresh encoder exercises the concurrent cache fill too.
	cold := NewEncoder(1024, cfg.Size, 9)
	var wg sync.WaitGroup
	mismatch := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, m := range ds.Maps {
				got := cold.Encode(m)
				for w := range got {
					if got[w] != want[i][w] {
						select {
						case mismatch <- "concurrent Encode diverged from serial":
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(mismatch)
	for m := range mismatch {
		t.Error(m)
	}
}

// TestEncoderConfigRebuild pins the deterministic-rebuild contract used by
// model artifacts: an encoder rebuilt from its Config encodes every map
// bit-identically.
func TestEncoderConfigRebuild(t *testing.T) {
	cfg := Config{Size: 16, Noise: 0.02, PatternP: 0.85}
	ds := GenerateDataset(2, cfg, 4)
	orig := NewEncoder(512, cfg.Size, 77)
	rebuilt, err := NewEncoderFromConfig(orig.Config())
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ds.Maps {
		a, b := orig.Encode(m), rebuilt.Encode(m)
		for w := range a {
			if a[w] != b[w] {
				t.Fatalf("map %d: rebuilt encoder diverges at word %d", i, w)
			}
		}
	}
	if _, err := NewEncoderFromConfig(EncoderConfig{Dim: 8, Size: 16}); err == nil {
		t.Error("tiny dim must be rejected")
	}
	if _, err := NewEncoderFromConfig(EncoderConfig{Dim: 512, Size: 1}); err == nil {
		t.Error("tiny grid must be rejected")
	}
	if _, err := NewEncoderFromConfig(EncoderConfig{Dim: 64, Size: MaxGridSize + 1}); err == nil {
		t.Error("grid above MaxGridSize must be rejected")
	}
	if _, err := NewEncoderFromConfig(EncoderConfig{Dim: 1 << 15, Size: MaxGridSize}); err == nil {
		t.Error("basis above maxBasisBytes must be rejected")
	}
	if _, err := NewEncoderFromConfig(EncoderConfig{Dim: 1<<32 - 1, Size: 2}); err == nil {
		t.Error("largest u32 dim must be rejected")
	}
}
