package outlier

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestSynthesizeShape(t *testing.T) {
	cfg := DefaultLotConfig()
	lot := Synthesize(cfg, 1)
	if len(lot.X) != cfg.Devices || len(lot.Defective) != cfg.Devices {
		t.Fatalf("lot shape %d/%d", len(lot.X), len(lot.Defective))
	}
	nDef := 0
	for _, d := range lot.Defective {
		if d {
			nDef++
		}
	}
	rate := float64(nDef) / float64(cfg.Devices)
	if rate < cfg.DefectRate/3 || rate > cfg.DefectRate*3 {
		t.Errorf("defect rate %f far from configured %f", rate, cfg.DefectRate)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(DefaultLotConfig(), 42)
	b := Synthesize(DefaultLotConfig(), 42)
	for i := range a.X {
		if a.Defective[i] != b.Defective[i] {
			t.Fatal("labels differ across same-seed lots")
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("data differ across same-seed lots")
			}
		}
	}
}

// healthyRef extracts the healthy devices — in a real flow this is the
// passing reference population.
func healthyRef(lot *Lot) [][]float64 {
	var ref [][]float64
	for i, d := range lot.Defective {
		if !d {
			ref = append(ref, lot.X[i])
		}
	}
	return ref
}

func TestAllScorersBeatChance(t *testing.T) {
	lot := Synthesize(DefaultLotConfig(), 7)
	ref := healthyRef(lot)
	// The univariate PAT screen is expected to be clearly weaker on
	// correlated data — that gap is the finding of experiment F3 — so its
	// floor is lower.
	for name, c := range map[string]struct {
		s     Scorer
		floor float64
	}{
		"zscore":      {&ZScorePAT{}, 0.60},
		"mahalanobis": {&Mahalanobis{}, 0.85},
		"knn":         {&KNNOutlier{K: 10}, 0.80},
	} {
		if err := c.s.Fit(ref); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		auc := AUC(ScoreAll(c.s, lot.X), lot.Defective)
		if auc < c.floor {
			t.Errorf("%s AUC = %f, expected > %.2f", name, auc, c.floor)
		}
	}
}

func TestMahalanobisBeatsUnivariateOnCorrelatedData(t *testing.T) {
	// With strongly correlated tests, the multivariate screen should not be
	// worse than the univariate PAT screen.
	cfg := DefaultLotConfig()
	cfg.Factors = 2
	cfg.NoiseSigma = 0.15
	lot := Synthesize(cfg, 11)
	ref := healthyRef(lot)
	z := &ZScorePAT{}
	m := &Mahalanobis{}
	if err := z.Fit(ref); err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(ref); err != nil {
		t.Fatal(err)
	}
	aucZ := AUC(ScoreAll(z, lot.X), lot.Defective)
	aucM := AUC(ScoreAll(m, lot.X), lot.Defective)
	if aucM+0.02 < aucZ {
		t.Errorf("mahalanobis AUC %f clearly below zscore %f", aucM, aucZ)
	}
}

func TestSweepMonotoneTradeoff(t *testing.T) {
	lot := Synthesize(DefaultLotConfig(), 13)
	s := &ZScorePAT{}
	if err := s.Fit(healthyRef(lot)); err != nil {
		t.Fatal(err)
	}
	pts := Sweep(ScoreAll(s, lot.X), lot.Defective, 50)
	if len(pts) != 50 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	// Raising the threshold can only increase escapes and decrease
	// overkill.
	for i := 1; i < len(pts); i++ {
		if pts[i].EscapeRate < pts[i-1].EscapeRate-1e-12 {
			t.Error("escape rate decreased with threshold")
		}
		if pts[i].OverkillRate > pts[i-1].OverkillRate+1e-12 {
			t.Error("overkill rate increased with threshold")
		}
	}
	// Extremes: lowest threshold rejects nearly everything (low escapes),
	// highest passes everything (no overkill).
	if pts[0].OverkillRate < 0.5 {
		t.Errorf("lowest threshold overkill = %f", pts[0].OverkillRate)
	}
	if pts[len(pts)-1].OverkillRate != 0 {
		t.Errorf("highest threshold overkill = %f", pts[len(pts)-1].OverkillRate)
	}
}

func TestAUCProperties(t *testing.T) {
	// Perfect separation.
	scores := []float64{1, 2, 3, 10, 11}
	labels := []bool{false, false, false, true, true}
	if auc := AUC(scores, labels); auc != 1 {
		t.Errorf("perfect AUC = %f", auc)
	}
	// Inverted scores.
	if auc := AUC([]float64{10, 11, 1, 2}, []bool{false, false, true, true}); auc != 0 {
		t.Errorf("inverted AUC = %f", auc)
	}
	// Ties count half.
	if auc := AUC([]float64{5, 5}, []bool{false, true}); auc != 0.5 {
		t.Errorf("tied AUC = %f", auc)
	}
	// Degenerate lots carry no ranking information: chance level, not NaN.
	if auc := AUC([]float64{1, 2}, []bool{false, false}); auc != 0.5 {
		t.Errorf("all-pass AUC = %f, want 0.5", auc)
	}
	if auc := AUC([]float64{1, 2}, []bool{true, true}); auc != 0.5 {
		t.Errorf("all-defective AUC = %f, want 0.5", auc)
	}
	if auc := AUC(nil, nil); auc != 0.5 {
		t.Errorf("empty AUC = %f, want 0.5", auc)
	}
}

func TestScorerValidation(t *testing.T) {
	if err := (&ZScorePAT{}).Fit(nil); err == nil {
		t.Error("empty fit must fail")
	}
	if err := (&Mahalanobis{}).Fit([][]float64{{1, 2}}); err == nil {
		t.Error("single-row covariance must fail")
	}
	if err := (&KNNOutlier{}).Fit(nil); err == nil {
		t.Error("empty knn fit must fail")
	}
	// K larger than reference clamps rather than crashing.
	k := &KNNOutlier{K: 100}
	if err := k.Fit([][]float64{{0, 0}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	if s := k.Score([]float64{0.5, 0.5}); s <= 0 {
		t.Errorf("knn score = %f", s)
	}
}

func TestInvertIdentity(t *testing.T) {
	a := [][]float64{{2, 0}, {0, 4}}
	inv, err := invert(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inv[0][0]-0.5) > 1e-12 || math.Abs(inv[1][1]-0.25) > 1e-12 {
		t.Errorf("inverse = %v", inv)
	}
	if _, err := invert([][]float64{{1, 1}, {1, 1}}); err == nil {
		t.Error("singular inverse must fail")
	}
}

func TestZScoreOnOutlier(t *testing.T) {
	ref := [][]float64{{0}, {0.1}, {-0.1}, {0.05}, {-0.05}, {0.02}, {-0.02}}
	s := &ZScorePAT{}
	if err := s.Fit(ref); err != nil {
		t.Fatal(err)
	}
	if inlier, outl := s.Score([]float64{0}), s.Score([]float64{5}); outl < 10*inlier+1 {
		t.Errorf("outlier score %f not far above inlier %f", outl, inlier)
	}
}

func BenchmarkMahalanobis(b *testing.B) {
	lot := Synthesize(DefaultLotConfig(), 1)
	s := &Mahalanobis{}
	if err := s.Fit(healthyRef(lot)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Score(lot.X[i%len(lot.X)])
	}
}

func TestPCAResidualScreen(t *testing.T) {
	lot := Synthesize(DefaultLotConfig(), 21)
	ref := healthyRef(lot)
	s := &PCAResidual{}
	if err := s.Fit(ref); err != nil {
		t.Fatal(err)
	}
	auc := AUC(ScoreAll(s, lot.X), lot.Defective)
	if auc < 0.8 {
		t.Errorf("PCA residual AUC = %f", auc)
	}
	// Fixed K also works.
	sk := &PCAResidual{K: 3}
	if err := sk.Fit(ref); err != nil {
		t.Fatal(err)
	}
	if a := AUC(ScoreAll(sk, lot.X), lot.Defective); a < 0.8 {
		t.Errorf("PCA(K=3) AUC = %f", a)
	}
	if err := (&PCAResidual{}).Fit(nil); err == nil {
		t.Error("empty reference must fail")
	}
}

func TestSweepEdgeCases(t *testing.T) {
	// Empty input: empty curve, no NaN thresholds.
	if pts := Sweep(nil, nil, 10); len(pts) != 0 {
		t.Errorf("empty Sweep returned %d points", len(pts))
	}
	// All-pass lot: escape rate is identically zero and overkill well-defined.
	scores := []float64{1, 2, 3, 4}
	for _, p := range Sweep(scores, []bool{false, false, false, false}, 5) {
		if p.EscapeRate != 0 {
			t.Errorf("all-pass escape rate = %f at threshold %f", p.EscapeRate, p.Threshold)
		}
		if math.IsNaN(p.OverkillRate) || math.IsNaN(p.Threshold) {
			t.Errorf("all-pass point has NaN: %+v", p)
		}
	}
	// All-defective lot: overkill identically zero.
	for _, p := range Sweep(scores, []bool{true, true, true, true}, 5) {
		if p.OverkillRate != 0 {
			t.Errorf("all-defective overkill = %f at threshold %f", p.OverkillRate, p.Threshold)
		}
		if math.IsNaN(p.EscapeRate) || math.IsNaN(p.Threshold) {
			t.Errorf("all-defective point has NaN: %+v", p)
		}
	}
	// Fully tied scores: the threshold range collapses but every point
	// stays finite and consistent.
	pts := Sweep([]float64{2, 2, 2}, []bool{true, false, true}, 4)
	if len(pts) != 4 {
		t.Fatalf("tied Sweep returned %d points, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Threshold != 2 {
			t.Errorf("tied threshold = %f, want 2", p.Threshold)
		}
		// No score exceeds the threshold, so nothing is rejected.
		if p.EscapeRate != 1 || p.OverkillRate != 0 {
			t.Errorf("tied point = %+v, want escape 1 / overkill 0", p)
		}
	}
}

// TestScoreConcurrent hammers every fitted scorer from 8 goroutines under
// the race detector: Score is documented safe for concurrent readers (the
// itrserve handlers share one fitted model).
func TestScoreConcurrent(t *testing.T) {
	lot := Synthesize(LotConfig{
		Devices: 300, Tests: 8, Factors: 3,
		DefectRate: 0.05, DefectMag: 2, DefectLoc: 2, NoiseSigma: 0.3,
	}, 11)
	scorers := map[string]Scorer{
		"zscore":      &ZScorePAT{},
		"mahalanobis": &Mahalanobis{},
		"knn":         &KNNOutlier{K: 5},
		"pca":         &PCAResidual{},
	}
	for name, s := range scorers {
		if err := s.Fit(lot.X); err != nil {
			t.Fatalf("%s fit: %v", name, err)
		}
		want := ScoreAll(s, lot.X)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, x := range lot.X {
					if got := s.Score(x); got != want[i] {
						select {
						case errs <- fmt.Sprintf("%s: concurrent Score(%d) = %v, want %v", name, i, got, want[i]):
						default:
						}
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
