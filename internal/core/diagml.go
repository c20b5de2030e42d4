package core

import (
	"fmt"
	"math/rand"

	"repro/internal/diagnosis"
	"repro/internal/ml"
)

// MLScorer ranks diagnosis candidates with a learned model over the
// candidate similarity features — the intelligent ranking of experiment T5.
type MLScorer struct {
	Model ml.Regressor
}

// Score implements diagnosis.Scorer.
func (s *MLScorer) Score(features []float64) float64 {
	return s.Model.Predict(features)
}

// TrainDiagnosisScorer fits a forest on labeled candidates generated by
// injecting the sampled faults (indices into d.Faults) and diagnosing them
// with the baseline ranker. The model learns which feature combinations
// indicate the true fault, including under tester noise.
func TrainDiagnosisScorer(d *diagnosis.Diagnoser, sample []int, noise float64, seed int64) (*MLScorer, error) {
	examples := d.TrainingSet(sample, noise, rand.New(rand.NewSource(seed)).Float64)
	if len(examples) == 0 {
		return nil, fmt.Errorf("core: empty diagnosis training set")
	}
	X := make([][]float64, len(examples))
	y := make([]float64, len(examples))
	for i, ex := range examples {
		X[i] = ex.Features
		y[i] = ex.Label
	}
	model := ml.NewForestRegressor(40, 10, seed)
	if err := model.Fit(X, y); err != nil {
		return nil, fmt.Errorf("core: diagnosis scorer: %w", err)
	}
	return &MLScorer{Model: model}, nil
}
