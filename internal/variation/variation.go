// Package variation models process variation for Monte Carlo timing
// analysis: per-instance threshold-voltage mismatch following Pelgrom-style
// scaling (sigma shrinks with device width), plus summary statistics for
// sampled delay distributions (experiment F4).
package variation

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/parallel"
)

// Params describes the variation corner.
type Params struct {
	SigmaVth0 float64 // Vth sigma for a unit-width device, volts
	GlobalSig float64 // die-to-die global Vth sigma, volts
}

// Default returns a 5-nm-class variation model: ~20 mV local sigma for the
// minimum device and 10 mV global.
func Default() Params {
	return Params{SigmaVth0: 0.020, GlobalSig: 0.010}
}

// Sampler draws per-instance threshold shifts deterministically from a
// seed.
type Sampler struct {
	p   Params
	rng *rand.Rand
}

// NewSampler returns a sampler seeded for reproducibility.
func NewSampler(p Params, seed int64) *Sampler {
	return &Sampler{p: p, rng: rand.New(rand.NewSource(seed))}
}

// NewSamplerAt returns the sampler for Monte Carlo sample index i, with its
// seed split deterministically from the base seed. Because every sample owns
// an independent RNG stream, a Monte Carlo sweep produces identical samples
// no matter how the index range is sharded over workers.
func NewSamplerAt(p Params, seed int64, i int) *Sampler {
	return NewSampler(p, parallel.SplitSeed(seed, int64(i)))
}

// Global draws one die-level Vth offset shared by all instances on the die.
func (s *Sampler) Global() float64 {
	return s.rng.NormFloat64() * s.p.GlobalSig
}

// Instance draws one device/cell local Vth offset. width is the effective
// device width multiple: mismatch scales as 1/sqrt(width) (Pelgrom).
func (s *Sampler) Instance(width float64) float64 {
	if width <= 0 {
		width = 1
	}
	return s.rng.NormFloat64() * s.p.SigmaVth0 / math.Sqrt(width)
}

// Stats summarizes a sample.
type Stats struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P95, P99 float64
}

// Summarize computes distribution statistics (quantiles by linear
// interpolation on the sorted sample).
func Summarize(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	s := Stats{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	ss := 0.0
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	if len(sorted) > 1 {
		s.Std = math.Sqrt(ss / float64(len(sorted)-1))
	}
	s.P50 = Quantile(sorted, 0.50)
	s.P95 = Quantile(sorted, 0.95)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile of a sorted sample with linear
// interpolation. It panics when the sample is empty or q outside [0,1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 || q < 0 || q > 1 {
		panic(fmt.Sprintf("variation: bad quantile request (n=%d, q=%g)", len(sorted), q))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

// Histogram bins xs into n equal-width bins over [min,max] and returns bin
// edges and counts — used by the harness to print figure-style
// distributions.
func Histogram(xs []float64, n int) (edges []float64, counts []int) {
	if n < 1 || len(xs) == 0 {
		return nil, nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	w := (hi - lo) / float64(n)
	edges = make([]float64, n+1)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	counts = make([]int, n)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b >= n {
			b = n - 1
		}
		counts[b]++
	}
	return edges, counts
}
