// Package ml is a self-contained machine-learning library (stdlib only)
// providing the model families the survey applies to test and reliability
// problems: regularized linear regression, k-nearest neighbours, CART
// decision trees, random forests, gradient-boosted trees and multilayer
// perceptrons, together with dataset handling and metrics.
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset couples a feature matrix with either regression targets (Y) or
// class labels (Labels); unused targets may be nil.
type Dataset struct {
	X      [][]float64
	Y      []float64
	Labels []int
}

// Dim returns the feature dimensionality (0 for an empty set).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks matrix shape consistency.
func (d *Dataset) Validate() error {
	dim := d.Dim()
	for i, row := range d.X {
		if len(row) != dim {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	if d.Y != nil && len(d.Y) != len(d.X) {
		return fmt.Errorf("ml: %d targets for %d rows", len(d.Y), len(d.X))
	}
	if d.Labels != nil && len(d.Labels) != len(d.X) {
		return fmt.Errorf("ml: %d labels for %d rows", len(d.Labels), len(d.X))
	}
	return nil
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{X: make([][]float64, len(d.X))}
	for i, row := range d.X {
		out.X[i] = append([]float64(nil), row...)
	}
	if d.Y != nil {
		out.Y = append([]float64(nil), d.Y...)
	}
	if d.Labels != nil {
		out.Labels = append([]int(nil), d.Labels...)
	}
	return out
}

// Shuffle permutes the dataset in place, deterministically from the seed.
func (d *Dataset) Shuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		if d.Y != nil {
			d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
		}
		if d.Labels != nil {
			d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
		}
	})
}

// Scaler standardizes features to zero mean, unit variance, remembering the
// training statistics for consistent application at inference time.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler learns standardization statistics from X.
func FitScaler(X [][]float64) *Scaler {
	if len(X) == 0 {
		return &Scaler{}
	}
	dim := len(X[0])
	s := &Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(len(X))
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(len(X)))
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1 // constant feature: leave centered only
		}
	}
	return s
}

// Transform standardizes one row (returns a new slice).
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardizes a matrix.
func (s *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}

// Regressor is a trainable real-valued predictor.
type Regressor interface {
	Fit(X [][]float64, y []float64) error
	Predict(x []float64) float64
}

// Classifier is a trainable label predictor.
type Classifier interface {
	Fit(X [][]float64, labels []int) error
	Predict(x []float64) int
}

// PredictAll applies a regressor row-wise.
func PredictAll(r Regressor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = r.Predict(row)
	}
	return out
}

// ClassifyAll applies a classifier row-wise.
func ClassifyAll(c Classifier, X [][]float64) []int {
	out := make([]int, len(X))
	for i, row := range X {
		out[i] = c.Predict(row)
	}
	return out
}
