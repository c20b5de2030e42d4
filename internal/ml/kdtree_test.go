package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestKDTreeMatchesBruteForce is the correctness anchor: exact agreement
// with the linear scan on random data, including distances.
func TestKDTreeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 5+rng.Intn(200), 1+rng.Intn(6)
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = rng.NormFloat64()
			}
		}
		tree, err := NewKDTree(X)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			k := 1 + rng.Intn(8)
			gotIdx, gotDist := tree.KNearest(q, k)
			wantIdx, wantDist := nearest(X, q, k)
			if len(gotIdx) != len(wantIdx) {
				return false
			}
			for i := range gotIdx {
				// Distances must agree exactly; index ties may resolve
				// differently only when distances are equal.
				if gotDist[i] != wantDist[i] {
					return false
				}
				if gotIdx[i] != wantIdx[i] && gotDist[i] != wantDist[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKDTreeValidation(t *testing.T) {
	if _, err := NewKDTree(nil); err == nil {
		t.Error("empty tree must fail")
	}
	if _, err := NewKDTree([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged points must fail")
	}
}

func TestKDTreeKClamped(t *testing.T) {
	tree, err := NewKDTree([][]float64{{0}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := tree.KNearest([]float64{0.4}, 10)
	if len(idx) != 3 {
		t.Errorf("k clamp returned %d", len(idx))
	}
	if idx[0] != 0 || idx[1] != 1 {
		t.Errorf("order = %v", idx)
	}
}

func BenchmarkKDTreeVsBrute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, d = 5000, 8
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
	}
	tree, err := NewKDTree(X)
	if err != nil {
		b.Fatal(err)
	}
	q := make([]float64, d)
	b.Run("kdtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.KNearest(q, 5)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nearest(X, q, 5)
		}
	})
}

// nearest is the brute-force oracle for KDTree: the indices and distances
// of the k nearest rows to x, ties broken by lower index.
func nearest(X [][]float64, x []float64, k int) ([]int, []float64) {
	if k > len(X) {
		k = len(X)
	}
	type nd struct {
		i int
		d float64
	}
	ds := make([]nd, len(X))
	for i, row := range X {
		ds[i] = nd{i, sqDist(row, x)}
	}
	sort.Slice(ds, func(a, b int) bool {
		if ds[a].d != ds[b].d {
			return ds[a].d < ds[b].d
		}
		return ds[a].i < ds[b].i
	})
	idx := make([]int, k)
	dist := make([]float64, k)
	for j := 0; j < k; j++ {
		idx[j] = ds[j].i
		dist[j] = math.Sqrt(ds[j].d)
	}
	return idx, dist
}
