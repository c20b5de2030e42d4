package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/aging"
	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/diagnosis"
	"repro/internal/fault"
	"repro/internal/liberty"
	"repro/internal/outlier"
	"repro/internal/spice"
	"repro/internal/wafer"
)

// Shared small arc corpus (spice runs are the expensive part).
var (
	arcOnce sync.Once
	arcData *ArcData
	arcErr  error
)

func smallArcData(t testing.TB) *ArcData {
	t.Helper()
	arcOnce.Do(func() {
		cells := liberty.BaseCells()[:6] // INV, BUF, NAND2, NAND3, NOR2, NOR3
		arcData, arcErr = BuildArcData(cells, spice.Default(300),
			[]float64{0, 0.04, 0.08}, liberty.CoarseGrid())
	})
	if arcErr != nil {
		t.Fatal(arcErr)
	}
	return arcData
}

func TestBuildArcDataShape(t *testing.T) {
	d := smallArcData(t)
	// 6 cells: INV(1) BUF(1) NAND2(2) NAND3(3) NOR2(2) NOR3(3) pins = 12
	// arcs = 12 pins * 2 edges, each * 3 dVth * 9 grid points.
	wantRuns := 12 * 2 * 3 * 9
	if d.Runs != wantRuns || len(d.Samples) != wantRuns {
		t.Fatalf("runs = %d samples = %d, want %d", d.Runs, len(d.Samples), wantRuns)
	}
	for _, s := range d.Samples {
		if len(s.Features) != NumArcFeatures {
			t.Fatalf("feature length %d, want %d", len(s.Features), NumArcFeatures)
		}
		if s.Delay <= 0 {
			t.Fatalf("nonpositive delay for %s", s.Cell)
		}
	}
	if d.SpiceTime <= 0 {
		t.Error("spice time not recorded")
	}
}

func TestSurrogateAccuracyAndSpeedup(t *testing.T) {
	d := smallArcData(t)
	for _, mz := range ModelZoo(1) {
		if mz.Name == "linear" {
			continue // plain linear is knowingly weak; covered below
		}
		_, rep, err := TrainSurrogate(mz.Name, mz.New(), d, 0.7, 1)
		if err != nil {
			t.Fatalf("%s: %v", mz.Name, err)
		}
		if rep.MAPE > 0.25 {
			t.Errorf("%s: MAPE %.3f too high", mz.Name, rep.MAPE)
		}
		// kNN keeps the whole corpus and pays a scan per query; everything
		// else must beat SPICE by well over an order of magnitude.
		minSpeedup := 10.0
		if mz.Name == "knn5" {
			minSpeedup = 2
		}
		if rep.Speedup < minSpeedup {
			t.Errorf("%s: speedup %.1f, expected > %.0f over transient sim", mz.Name, rep.Speedup, minSpeedup)
		}
	}
}

func TestNonlinearBeatsLinearSurrogate(t *testing.T) {
	d := smallArcData(t)
	_, lin, err := TrainSurrogate("linear", ModelZoo(1)[0].New(), d, 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	zoo := ModelZoo(1)
	var forestRep *SurrogateReport
	for _, mz := range zoo {
		if mz.Name == "forest" {
			_, forestRep, err = TrainSurrogate(mz.Name, mz.New(), d, 0.7, 1)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if forestRep.MAPE >= lin.MAPE {
		t.Errorf("forest MAPE %.3f not below linear %.3f", forestRep.MAPE, lin.MAPE)
	}
}

func TestSurrogatePredictScales(t *testing.T) {
	d := smallArcData(t)
	sur, _, err := TrainSurrogate("forest", ModelZoo(1)[3].New(), d, 0.8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Samples[0]
	pred := sur.Predict(s.Features)
	if pred <= 0 || pred > 1e-9 {
		t.Errorf("predicted delay %g s implausible", pred)
	}
}

func TestTrainSurrogateValidation(t *testing.T) {
	d := &ArcData{}
	if _, _, err := TrainSurrogate("x", ModelZoo(1)[0].New(), d, 0.7, 1); err == nil {
		t.Error("empty corpus must fail")
	}
	d2 := smallArcData(t)
	if _, _, err := TrainSurrogate("x", ModelZoo(1)[0].New(), d2, 1.0, 1); err == nil {
		t.Error("train fraction 1.0 must fail")
	}
}

func TestWaferClassifiers(t *testing.T) {
	cfg := wafer.DefaultConfig()
	cfg.Size = 32
	train := wafer.GenerateDataset(20, cfg, 1)
	test := wafer.GenerateDataset(8, cfg, 2)
	results, err := EvaluateWaferClassifiers(train, test, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Accuracy < 0.5 {
			t.Errorf("%s accuracy %.3f below sanity floor", r.Name, r.Accuracy)
		}
		if r.MacroF1 <= 0 {
			t.Errorf("%s macro F1 = %f", r.Name, r.MacroF1)
		}
	}
	// HDC must be competitive (within 20 points of the best baseline).
	best := 0.0
	for _, r := range results[1:] {
		if r.Accuracy > best {
			best = r.Accuracy
		}
	}
	if results[0].Accuracy < best-0.2 {
		t.Errorf("HDC accuracy %.3f far below best baseline %.3f", results[0].Accuracy, best)
	}
}

func TestHDCRetrainingHistoryRecorded(t *testing.T) {
	cfg := wafer.DefaultConfig()
	cfg.Size = 32
	train := wafer.GenerateDataset(10, cfg, 3)
	h := NewHDCWaferClassifier(1024, 32, 10, 1)
	if err := h.Fit(train); err != nil {
		t.Fatal(err)
	}
	if len(h.ErrHistory) == 0 {
		t.Fatal("no retraining history")
	}
	if h.ErrHistory[len(h.ErrHistory)-1] > h.ErrHistory[0] {
		t.Error("retraining errors increased")
	}
}

// sharedLib for aging STA (coarse grid for speed).
var (
	libOnce sync.Once
	aLib    *liberty.Library
	aLibErr error
)

func agingLib(t testing.TB) *liberty.Library {
	t.Helper()
	libOnce.Do(func() {
		aLib, aLibErr = liberty.Characterize("t300", liberty.AllCells(),
			spice.Default(300), liberty.CoarseGrid(), 0)
	})
	if aLibErr != nil {
		t.Fatal(aLibErr)
	}
	return aLib
}

func TestAgingAwareSTA(t *testing.T) {
	n := circuit.RippleAdder(8)
	rep, err := AgingAwareSTA(n, agingLib(t), DefaultAgingSTAConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !(rep.FreshDelay < rep.WorkloadAware && rep.WorkloadAware < rep.WorstCase) {
		t.Errorf("ordering violated: fresh %g workload %g worst %g",
			rep.FreshDelay, rep.WorkloadAware, rep.WorstCase)
	}
	if rep.SavingsFrac <= 0 || rep.SavingsFrac > 1 {
		t.Errorf("savings fraction = %f", rep.SavingsFrac)
	}
	if rep.MLMAPE > 0.05 {
		t.Errorf("learned aging estimator MAPE = %f", rep.MLMAPE)
	}
	// The ML-predicted guardband must land near the exact workload-aware
	// one (within 5% of the fresh delay).
	diff := rep.MLPredicted - rep.WorkloadAware
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05*rep.FreshDelay {
		t.Errorf("ML guardband %g far from exact %g", rep.MLPredicted, rep.WorkloadAware)
	}
}

func TestWorkloadProfileRanges(t *testing.T) {
	n := circuit.MustC17()
	probHigh, activity, err := WorkloadProfile(n, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	for g := range probHigh {
		if probHigh[g] < 0 || probHigh[g] > 1 {
			t.Errorf("probHigh[%d] = %f", g, probHigh[g])
		}
		if activity[g] < 0 {
			t.Errorf("activity[%d] = %f", g, activity[g])
		}
	}
}

func TestDegradationCurveMonotone(t *testing.T) {
	cfg := DefaultAgingSTAConfig()
	stress := aging.Stress{TempK: 350, Duty: 0.5, Activity: 0.2, ClockHz: 1e9}
	curve := DegradationCurve(cfg.Model, stress, []float64{0, 1, 2, 5, 10})
	prev := 0.0
	for i, pt := range curve {
		if pt.DVth < prev {
			t.Fatalf("ΔVth decreased at point %d", i)
		}
		prev = pt.DVth
		if pt.Factor < 1 {
			t.Errorf("factor below 1 at %f years", pt.Years)
		}
	}
}

func TestDiagnosisMLScorerImproves(t *testing.T) {
	n := circuit.ArrayMultiplier(4)
	res, err := atpg.Run(n, atpg.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := diagnosis.New(n, res.Patterns, fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var trainSample, evalSample []int
	for i := range d.Faults {
		if d.Dict[i].FailBits() == 0 {
			continue
		}
		if i%3 == 0 {
			trainSample = append(trainSample, i)
		} else if len(evalSample) < 60 {
			evalSample = append(evalSample, i)
		}
	}
	scorer, err := TrainDiagnosisScorer(d, trainSample[:40], 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	noise := 0.15
	base := d.Evaluate(evalSample, noise, rng.Float64, nil)
	rng2 := rand.New(rand.NewSource(5))
	mlAcc := d.Evaluate(evalSample, noise, rng2.Float64, scorer)
	if mlAcc.Top5Rate() < base.Top5Rate()-0.1 {
		t.Errorf("ML ranking top-5 %.3f clearly below baseline %.3f",
			mlAcc.Top5Rate(), base.Top5Rate())
	}
	if mlAcc.Top1Rate() <= 0.2 {
		t.Errorf("ML top-1 rate = %f", mlAcc.Top1Rate())
	}
}

func TestAdaptiveFlow(t *testing.T) {
	lot := outlier.Synthesize(outlier.DefaultLotConfig(), 3)
	var ref [][]float64
	for i, d := range lot.Defective {
		if !d {
			ref = append(ref, lot.X[i])
		}
	}
	flow, err := NewAdaptiveFlow(&outlier.Mahalanobis{}, ref, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	res := flow.Screen(lot)
	if res.Devices != len(lot.X) {
		t.Error("device count wrong")
	}
	healthy := 0
	for _, d := range lot.Defective {
		if !d {
			healthy++
		}
	}
	overkillRate := float64(res.Overkill) / float64(healthy)
	if overkillRate > 0.05 {
		t.Errorf("overkill %.3f blew the 2%% budget (tolerance 5%%)", overkillRate)
	}
	// It must catch a nontrivial share of defects.
	defects := len(lot.X) - healthy
	caught := defects - res.Escapes
	if float64(caught)/float64(defects) < 0.4 {
		t.Errorf("caught only %d of %d defects", caught, defects)
	}
}

func TestCalibrateThresholdValidation(t *testing.T) {
	if _, err := CalibrateThreshold(nil, 0.05); err == nil {
		t.Error("empty scores must fail")
	}
	if _, err := CalibrateThreshold([]float64{1}, 1.5); err == nil {
		t.Error("bad budget must fail")
	}
	th, err := CalibrateThreshold([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if th != 10 {
		t.Errorf("threshold = %f, want 10 (90th percentile index)", th)
	}
}
