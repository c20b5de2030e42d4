package ml

import "fmt"

// KNNRegressor predicts the (optionally distance-weighted) mean target of
// the k nearest training samples under Euclidean distance. Queries are
// served from a k-d tree built at fit time.
type KNNRegressor struct {
	K        int
	Weighted bool
	X        [][]float64
	Y        []float64
	tree     *KDTree
}

// Fit memorizes the training set and indexes it.
func (m *KNNRegressor) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("ml: knn fit needs matching non-empty X, y")
	}
	if m.K < 1 {
		return fmt.Errorf("ml: knn k must be >= 1, got %d", m.K)
	}
	tree, err := NewKDTree(X)
	if err != nil {
		return err
	}
	m.X, m.Y, m.tree = X, y, tree
	return nil
}

// Predict returns the neighbourhood mean.
func (m *KNNRegressor) Predict(x []float64) float64 {
	idx, dist := m.tree.KNearest(x, m.K)
	if !m.Weighted {
		s := 0.0
		for _, i := range idx {
			s += m.Y[i]
		}
		return s / float64(len(idx))
	}
	var num, den float64
	for j, i := range idx {
		w := 1 / (dist[j] + 1e-12)
		num += w * m.Y[i]
		den += w
	}
	return num / den
}

// KNNClassifier predicts the majority label of the k nearest training
// samples (ties broken toward the smaller label for determinism).
type KNNClassifier struct {
	K      int
	X      [][]float64
	Labels []int
	tree   *KDTree
}

// NewKNNClassifier returns a k-NN classifier.
func NewKNNClassifier(k int) *KNNClassifier { return &KNNClassifier{K: k} }

// Fit memorizes the training set and indexes it.
func (m *KNNClassifier) Fit(X [][]float64, labels []int) error {
	if len(X) == 0 || len(X) != len(labels) {
		return fmt.Errorf("ml: knn fit needs matching non-empty X, labels")
	}
	if m.K < 1 {
		return fmt.Errorf("ml: knn k must be >= 1, got %d", m.K)
	}
	tree, err := NewKDTree(X)
	if err != nil {
		return err
	}
	m.X, m.Labels, m.tree = X, labels, tree
	return nil
}

// Predict returns the majority vote.
func (m *KNNClassifier) Predict(x []float64) int {
	idx, _ := m.tree.KNearest(x, m.K)
	votes := map[int]int{}
	for _, i := range idx {
		votes[m.Labels[i]]++
	}
	best, bestV := -1, -1
	for l, v := range votes {
		if v > bestV || (v == bestV && l < best) {
			best, bestV = l, v
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
