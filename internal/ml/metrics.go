package ml

import (
	"fmt"
	"math"
)

// MSE returns the mean squared error.
func MSE(yTrue, yPred []float64) float64 {
	checkLen(len(yTrue), len(yPred))
	if len(yTrue) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range yTrue {
		d := yTrue[i] - yPred[i]
		s += d * d
	}
	return s / float64(len(yTrue))
}

// RMSE returns the root mean squared error.
func RMSE(yTrue, yPred []float64) float64 { return math.Sqrt(MSE(yTrue, yPred)) }

// MAPE returns the mean absolute percentage error (fraction, not percent).
// Samples with |yTrue| below eps are skipped to avoid division blow-up.
func MAPE(yTrue, yPred []float64) float64 {
	checkLen(len(yTrue), len(yPred))
	const eps = 1e-30
	s, n := 0.0, 0
	for i := range yTrue {
		if math.Abs(yTrue[i]) < eps {
			continue
		}
		s += math.Abs((yTrue[i] - yPred[i]) / yTrue[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// R2 returns the coefficient of determination.
func R2(yTrue, yPred []float64) float64 {
	checkLen(len(yTrue), len(yPred))
	if len(yTrue) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, y := range yTrue {
		mean += y
	}
	mean /= float64(len(yTrue))
	var ssRes, ssTot float64
	for i := range yTrue {
		d := yTrue[i] - yPred[i]
		ssRes += d * d
		t := yTrue[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}

// Accuracy returns the fraction of matching labels.
func Accuracy(yTrue, yPred []int) float64 {
	checkLen(len(yTrue), len(yPred))
	if len(yTrue) == 0 {
		return math.NaN()
	}
	c := 0
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			c++
		}
	}
	return float64(c) / float64(len(yTrue))
}

// ConfusionMatrix tallies predictions; rows index true labels, columns
// predicted labels, for labels 0..nClasses-1.
func ConfusionMatrix(yTrue, yPred []int, nClasses int) [][]int {
	checkLen(len(yTrue), len(yPred))
	m := make([][]int, nClasses)
	for i := range m {
		m[i] = make([]int, nClasses)
	}
	for i := range yTrue {
		if yTrue[i] < 0 || yTrue[i] >= nClasses || yPred[i] < 0 || yPred[i] >= nClasses {
			panic(fmt.Sprintf("ml: label out of range: true %d pred %d of %d", yTrue[i], yPred[i], nClasses))
		}
		m[yTrue[i]][yPred[i]]++
	}
	return m
}

// MacroF1 returns the unweighted mean of per-class F1 scores. Classes
// absent from both truth and prediction contribute F1 = 0 only if they
// appear in the confusion matrix dimension; classes with no true or
// predicted samples are skipped.
func MacroF1(yTrue, yPred []int, nClasses int) float64 {
	cm := ConfusionMatrix(yTrue, yPred, nClasses)
	sum, n := 0.0, 0
	for c := 0; c < nClasses; c++ {
		tp := cm[c][c]
		fp, fn := 0, 0
		for o := 0; o < nClasses; o++ {
			if o != c {
				fp += cm[o][c]
				fn += cm[c][o]
			}
		}
		if tp+fp+fn == 0 {
			continue // class absent entirely
		}
		n++
		if tp == 0 {
			continue // F1 = 0
		}
		prec := float64(tp) / float64(tp+fp)
		rec := float64(tp) / float64(tp+fn)
		sum += 2 * prec * rec / (prec + rec)
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("ml: length mismatch %d vs %d", a, b))
	}
}
