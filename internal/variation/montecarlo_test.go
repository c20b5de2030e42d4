package variation

import (
	"math"
	"testing"

	"repro/internal/parallel"
)

// TestMonteCarloDeterministicAcrossWorkers asserts the seed-splitting
// contract of a Monte Carlo sweep that draws sample i from NewSamplerAt, as
// F4 does: the sample vector is bit-identical for any worker count.
func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	p := Default()
	n := 500
	run := func(workers int) []float64 {
		out := make([]float64, n)
		err := parallel.For(workers, n, func(i int) error {
			s := NewSamplerAt(p, 42, i)
			v := s.Global()
			for k := 0; k < 8; k++ {
				v += s.Instance(1)
			}
			out[i] = v
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: sample %d = %v, serial %v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestNewSamplerAtIndependentStreams(t *testing.T) {
	p := Default()
	a := NewSamplerAt(p, 1, 0)
	b := NewSamplerAt(p, 1, 1)
	if a.Global() == b.Global() {
		t.Error("adjacent sample streams must not be identical")
	}
	// Same (seed, index) reproduces exactly.
	x := NewSamplerAt(p, 1, 7).Instance(1)
	y := NewSamplerAt(p, 1, 7).Instance(1)
	if x != y {
		t.Error("sampler at fixed (seed, index) must reproduce")
	}
}

// TestMonteCarloStats sanity-checks that split streams still follow the
// variation model: pooled instance offsets are ~N(0, SigmaVth0).
func TestMonteCarloStats(t *testing.T) {
	p := Default()
	n := 4000
	xs := make([]float64, n)
	err := parallel.For(4, n, func(i int) error {
		xs[i] = NewSamplerAt(p, 9, i).Instance(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(xs)
	if math.Abs(st.Mean) > 3*p.SigmaVth0/math.Sqrt(float64(n)) {
		t.Errorf("pooled mean %g too far from 0", st.Mean)
	}
	if st.Std < 0.8*p.SigmaVth0 || st.Std > 1.2*p.SigmaVth0 {
		t.Errorf("pooled std %g vs model sigma %g", st.Std, p.SigmaVth0)
	}
}
