package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthetic regression problem: y = 3x0 - 2x1 + 1 + noise
func linearData(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		y[i] = 3*X[i][0] - 2*X[i][1] + 1 + rng.NormFloat64()*noise
	}
	return X, y
}

// nonlinear problem: y = sin(pi x0) + x1^2
func nonlinearData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y[i] = math.Sin(math.Pi*X[i][0]) + X[i][1]*X[i][1]
	}
	return X, y
}

// two-moons-ish classification: label by sign of a nonlinear boundary.
func classData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	l := make([]int, n)
	for i := range X {
		X[i] = []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		if X[i][1] > math.Sin(X[i][0]*2)*0.8 {
			l[i] = 1
		}
	}
	return X, l
}

func TestRidgeRecoversCoefficients(t *testing.T) {
	X, y := linearData(500, 0.01, 1)
	r := NewRidge(1e-6)
	if err := r.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Weights[0]-3) > 0.05 || math.Abs(r.Weights[1]+2) > 0.05 || math.Abs(r.Intercept-1) > 0.05 {
		t.Errorf("coefficients = %v intercept %f", r.Weights, r.Intercept)
	}
	pred := PredictAll(r, X)
	if r2 := R2(y, pred); r2 < 0.999 {
		t.Errorf("R2 = %f", r2)
	}
}

func TestRidgeRegularizationShrinks(t *testing.T) {
	X, y := linearData(50, 0.1, 2)
	loose := NewRidge(1e-9)
	tight := NewRidge(1e4)
	if err := loose.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := tight.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	nl := math.Abs(loose.Weights[0]) + math.Abs(loose.Weights[1])
	nt := math.Abs(tight.Weights[0]) + math.Abs(tight.Weights[1])
	if nt >= nl {
		t.Errorf("regularization did not shrink weights: %f vs %f", nt, nl)
	}
}

func TestRidgeErrors(t *testing.T) {
	r := NewRidge(0)
	if err := r.Fit(nil, nil); err == nil {
		t.Error("empty fit must fail")
	}
	if err := r.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix must fail")
	}
	// Perfectly collinear features with zero lambda: singular.
	X := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	y := []float64{1, 2, 3}
	if err := r.Fit(X, y); err == nil {
		t.Error("singular system must fail with lambda=0")
	}
	r2 := NewRidge(1e-3)
	if err := r2.Fit(X, y); err != nil {
		t.Errorf("ridge must handle collinearity: %v", err)
	}
}

func TestPolyFeatures(t *testing.T) {
	out := PolyFeatures([]float64{2, 3})
	want := []float64{2, 3, 4, 6, 9}
	if len(out) != len(want) {
		t.Fatalf("poly length = %d", len(out))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("poly[%d] = %f, want %f", i, out[i], want[i])
		}
	}
}

func TestKNNRegressor(t *testing.T) {
	X, y := nonlinearData(800, 3)
	m := &KNNRegressor{K: 5}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := nonlinearData(100, 4)
	pred := make([]float64, len(Xt))
	for i := range Xt {
		pred[i] = m.Predict(Xt[i])
	}
	if r2 := R2(yt, pred); r2 < 0.9 {
		t.Errorf("kNN R2 = %f", r2)
	}
	// Weighted variant also works.
	mw := &KNNRegressor{K: 5, Weighted: true}
	if err := mw.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if v := mw.Predict(X[0]); math.Abs(v-y[0]) > 0.2 {
		t.Errorf("weighted kNN at a training point = %f, want ~%f", v, y[0])
	}
}

func TestKNNClassifier(t *testing.T) {
	X, l := classData(600, 5)
	m := NewKNNClassifier(7)
	if err := m.Fit(X, l); err != nil {
		t.Fatal(err)
	}
	Xt, lt := classData(200, 6)
	pred := ClassifyAll(m, Xt)
	if acc := Accuracy(lt, pred); acc < 0.85 {
		t.Errorf("kNN accuracy = %f", acc)
	}
}

func TestKNNValidation(t *testing.T) {
	if err := (&KNNRegressor{}).Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("k=0 must fail")
	}
	if err := NewKNNClassifier(3).Fit(nil, nil); err == nil {
		t.Error("empty fit must fail")
	}
}

func TestTreeRegressorFitsStep(t *testing.T) {
	// Perfect split on a step function.
	X := [][]float64{{0.1}, {0.2}, {0.3}, {0.7}, {0.8}, {0.9}}
	y := []float64{1, 1, 1, 5, 5, 5}
	tr := NewTreeRegressor(3)
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if v := tr.Predict([]float64{0.0}); v != 1 {
		t.Errorf("left = %f", v)
	}
	if v := tr.Predict([]float64{1.0}); v != 5 {
		t.Errorf("right = %f", v)
	}
}

func TestTreeRegressorNonlinear(t *testing.T) {
	X, y := nonlinearData(1000, 7)
	tr := NewTreeRegressor(8)
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := nonlinearData(200, 8)
	pred := PredictAll(tr, Xt)
	if r2 := R2(yt, pred); r2 < 0.85 {
		t.Errorf("tree R2 = %f", r2)
	}
}

func TestTreeClassifier(t *testing.T) {
	X, l := classData(800, 9)
	tc := NewTreeClassifier(8)
	if err := tc.Fit(X, l); err != nil {
		t.Fatal(err)
	}
	Xt, lt := classData(200, 10)
	if acc := Accuracy(lt, ClassifyAll(tc, Xt)); acc < 0.85 {
		t.Errorf("tree accuracy = %f", acc)
	}
	if err := tc.Fit([][]float64{{1}}, []int{-1}); err == nil {
		t.Error("negative labels must fail")
	}
}

func TestTreeDepthLimitRespected(t *testing.T) {
	X, y := nonlinearData(300, 11)
	shallow := NewTreeRegressor(1)
	deep := NewTreeRegressor(10)
	if err := shallow.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := deep.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	ps := PredictAll(shallow, X)
	pd := PredictAll(deep, X)
	if MSE(y, ps) <= MSE(y, pd) {
		t.Error("depth-1 tree cannot beat depth-10 on training data")
	}
	// Depth-1 tree has at most 2 distinct outputs.
	vals := map[float64]bool{}
	for _, p := range ps {
		vals[p] = true
	}
	if len(vals) > 2 {
		t.Errorf("stump produced %d distinct outputs", len(vals))
	}
}

func TestForestRegressor(t *testing.T) {
	X, y := nonlinearData(600, 12)
	f := NewForestRegressor(30, 8, 1)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := nonlinearData(200, 13)
	if r2 := R2(yt, PredictAll(f, Xt)); r2 < 0.88 {
		t.Errorf("forest R2 = %f", r2)
	}
}

func TestForestClassifier(t *testing.T) {
	X, l := classData(800, 14)
	f := NewForestClassifier(25, 8, 1)
	if err := f.Fit(X, l); err != nil {
		t.Fatal(err)
	}
	Xt, lt := classData(200, 15)
	if acc := Accuracy(lt, ClassifyAll(f, Xt)); acc < 0.88 {
		t.Errorf("forest accuracy = %f", acc)
	}
}

func TestForestDeterministic(t *testing.T) {
	X, y := nonlinearData(200, 16)
	a := NewForestRegressor(10, 6, 99)
	b := NewForestRegressor(10, 6, 99)
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if a.Predict(X[i]) != b.Predict(X[i]) {
			t.Fatal("same-seed forests differ")
		}
	}
}

func TestGBTRegressor(t *testing.T) {
	X, y := nonlinearData(600, 17)
	g := NewGBTRegressor(150, 3, 0.1, 1)
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := nonlinearData(200, 18)
	if r2 := R2(yt, PredictAll(g, Xt)); r2 < 0.93 {
		t.Errorf("GBT R2 = %f", r2)
	}
}

func TestGBTBeatsSingleTree(t *testing.T) {
	X, y := nonlinearData(500, 19)
	Xt, yt := nonlinearData(200, 20)
	tr := NewTreeRegressor(3)
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	g := NewGBTRegressor(100, 3, 0.1, 1)
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if MSE(yt, PredictAll(g, Xt)) >= MSE(yt, PredictAll(tr, Xt)) {
		t.Error("boosting failed to improve over its base learner")
	}
}

func TestMLPRegressor(t *testing.T) {
	X, y := nonlinearData(800, 21)
	cfg := DefaultMLPConfig()
	cfg.Epochs = 300
	m := NewMLPRegressor(cfg)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := nonlinearData(200, 22)
	if r2 := R2(yt, PredictAll(m, Xt)); r2 < 0.9 {
		t.Errorf("MLP R2 = %f", r2)
	}
	h := m.History()
	if len(h) != cfg.Epochs {
		t.Fatalf("history length %d", len(h))
	}
	if h[len(h)-1] >= h[0] {
		t.Error("training loss did not decrease")
	}
}

func TestMLPClassifier(t *testing.T) {
	X, l := classData(800, 23)
	cfg := DefaultMLPConfig()
	cfg.Epochs = 150
	m := NewMLPClassifier(cfg)
	if err := m.Fit(X, l); err != nil {
		t.Fatal(err)
	}
	Xt, lt := classData(200, 24)
	if acc := Accuracy(lt, ClassifyAll(m, Xt)); acc < 0.88 {
		t.Errorf("MLP accuracy = %f", acc)
	}
}

func TestMetricsBasics(t *testing.T) {
	yt := []float64{1, 2, 3}
	yp := []float64{1, 2, 3}
	if MSE(yt, yp) != 0 || RMSE(yt, yp) != 0 {
		t.Error("perfect prediction metrics nonzero")
	}
	if R2(yt, yp) != 1 {
		t.Error("perfect R2 != 1")
	}
	if m := MAPE([]float64{2, 4}, []float64{1, 2}); math.Abs(m-0.5) > 1e-12 {
		t.Errorf("MAPE = %f", m)
	}
	if m := MAPE([]float64{0}, []float64{1}); !math.IsNaN(m) {
		t.Error("MAPE of all-zero truth must be NaN")
	}
}

func TestConfusionAndF1(t *testing.T) {
	yt := []int{0, 0, 1, 1, 2, 2}
	yp := []int{0, 1, 1, 1, 2, 0}
	cm := ConfusionMatrix(yt, yp, 3)
	if cm[0][0] != 1 || cm[0][1] != 1 || cm[1][1] != 2 || cm[2][0] != 1 || cm[2][2] != 1 {
		t.Errorf("confusion = %v", cm)
	}
	f1 := MacroF1(yt, yp, 3)
	if f1 <= 0 || f1 >= 1 {
		t.Errorf("macro F1 = %f", f1)
	}
	if acc := Accuracy(yt, yp); math.Abs(acc-4.0/6) > 1e-12 {
		t.Errorf("accuracy = %f", acc)
	}
}

func TestScaler(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s := FitScaler(X)
	Xs := s.TransformAll(X)
	if math.Abs(Xs[0][0]+Xs[2][0]) > 1e-12 {
		t.Error("not centered")
	}
	// Constant feature: centered, not scaled to NaN.
	for _, row := range Xs {
		if math.IsNaN(row[1]) || math.IsInf(row[1], 0) {
			t.Error("constant feature mishandled")
		}
	}
}

func TestDatasetCloneShuffle(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 100; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, float64(i))
		d.Labels = append(d.Labels, i%3)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	c := d.Clone()
	c.Shuffle(5)
	// Original untouched.
	if d.X[0][0] != 0 {
		t.Error("clone shares storage")
	}
	// Shuffle preserves (X, Y, Label) alignment.
	for i := range c.X {
		if c.X[i][0] != c.Y[i] {
			t.Fatal("shuffle broke row alignment")
		}
	}
}

// Property: standardization is invertible within float tolerance.
func TestScalerRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 5+rng.Intn(20), 1+rng.Intn(5)
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = rng.NormFloat64() * 10
			}
		}
		s := FitScaler(X)
		for i := range X {
			z := s.Transform(X[i])
			for j := range z {
				back := z[j]*s.Std[j] + s.Mean[j]
				if math.Abs(back-X[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkForestFit(b *testing.B) {
	X, y := nonlinearData(500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForestRegressor(20, 8, 1)
		if err := f.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLPPredict(b *testing.B) {
	X, y := nonlinearData(300, 1)
	cfg := DefaultMLPConfig()
	cfg.Epochs = 50
	m := NewMLPRegressor(cfg)
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(X[i%len(X)])
	}
}
