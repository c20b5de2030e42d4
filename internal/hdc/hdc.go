// Package hdc implements binary hyperdimensional computing (Kanerva-style):
// dense random hypervectors with XOR binding, majority bundling, level
// (thermometer) encoding of scalars, and an associative-memory classifier
// with perceptron-style online retraining — the brain-inspired lightweight
// classifier the survey applies to semiconductor test data (experiments
// T3/F1/F5).
package hdc

import (
	"fmt"
	"math"
	"math/rand"
)

// HV is a binary hypervector packed into 64-bit words. All vectors taking
// part in one computation must share the same dimension.
type HV []uint64

// Words returns the number of backing words for a dimension.
func Words(dim int) int { return (dim + 63) / 64 }

// NewHV returns an all-zero hypervector of the given dimension.
func NewHV(dim int) HV { return make(HV, Words(dim)) }

// RandHV draws a uniformly random hypervector.
func RandHV(dim int, rng *rand.Rand) HV {
	h := NewHV(dim)
	for i := range h {
		h[i] = rng.Uint64()
	}
	maskTail(h, dim)
	return h
}

func maskTail(h HV, dim int) {
	if r := dim % 64; r != 0 && len(h) > 0 {
		h[len(h)-1] &= (1 << uint(r)) - 1
	}
}

// Bit returns bit i.
func (h HV) Bit(i int) bool { return h[i/64]>>(uint(i)%64)&1 == 1 }

// SetBit sets bit i to v.
func (h HV) SetBit(i int, v bool) {
	if v {
		h[i/64] |= 1 << (uint(i) % 64)
	} else {
		h[i/64] &^= 1 << (uint(i) % 64)
	}
}

// Clone copies the vector.
func (h HV) Clone() HV { return append(HV(nil), h...) }

// Xor returns the binding a ⊕ b as a new vector.
func (h HV) Xor(o HV) HV {
	out := make(HV, len(h))
	for i := range h {
		out[i] = h[i] ^ o[i]
	}
	return out
}

// Bundler accumulates vectors by per-bit vote counting; Binarize yields the
// majority vector. Weighted additions enable perceptron-style updates.
type Bundler struct {
	Dim    int
	counts []int32
	n      int
}

// NewBundler returns an empty accumulator.
func NewBundler(dim int) *Bundler {
	return &Bundler{Dim: dim, counts: make([]int32, dim)}
}

// Add votes the vector in with weight +1.
func (b *Bundler) Add(h HV) { b.AddWeighted(h, 1) }

// AddWeighted votes the vector with the given weight: each set bit adds w
// to its counter, each clear bit subtracts w.
func (b *Bundler) AddWeighted(h HV, w int32) {
	for wi, word := range h {
		base := wi * 64
		end := b.Dim - base
		if end > 64 {
			end = 64
		}
		cnt := b.counts[base : base+end]
		for bit := range cnt {
			if word>>uint(bit)&1 == 1 {
				cnt[bit] += w
			} else {
				cnt[bit] -= w
			}
		}
	}
	b.n++
}

// N returns the number of Add operations applied.
func (b *Bundler) N() int { return b.n }

// Clone returns an independent copy of the accumulator — the basis of
// delta-encoding schemes that start from a shared base bundle.
func (b *Bundler) Clone() *Bundler {
	return &Bundler{Dim: b.Dim, counts: append([]int32(nil), b.counts...), n: b.n}
}

// Binarize thresholds the accumulated counts at zero; exact ties resolve
// deterministically from the bit index parity (avoiding rng state in hot
// paths while staying unbiased across positions).
func (b *Bundler) Binarize() HV {
	out := NewHV(b.Dim)
	for i, c := range b.counts {
		switch {
		case c > 0:
			out.SetBit(i, true)
		case c == 0 && i%2 == 0:
			out.SetBit(i, true)
		}
	}
	return out
}

// ItemMemory deterministically assigns random hypervectors to symbol IDs.
type ItemMemory struct {
	Dim  int
	seed int64
	vecs map[int]HV
}

// NewItemMemory returns an item memory seeded for reproducibility.
func NewItemMemory(dim int, seed int64) *ItemMemory {
	return &ItemMemory{Dim: dim, seed: seed, vecs: make(map[int]HV)}
}

// Get returns the hypervector for symbol id, creating it on first use.
func (m *ItemMemory) Get(id int) HV {
	if h, ok := m.vecs[id]; ok {
		return h
	}
	const mix = int64(0x5851F42D4C957F2D) // splitmix-style odd multiplier
	rng := rand.New(rand.NewSource(m.seed ^ (int64(id)+1)*mix))
	h := RandHV(m.Dim, rng)
	m.vecs[id] = h
	return h
}

// Levels encodes scalars into hypervectors with the thermometer scheme: the
// lowest level is random, each subsequent level flips a fixed slice of
// positions, so Hamming distance grows linearly with level separation.
type Levels struct {
	Dim  int
	vecs []HV
}

// NewLevels builds n level vectors; they depend only on dim, n and seed.
func NewLevels(dim, n int, seed int64) *Levels {
	if n < 2 {
		panic(fmt.Sprintf("hdc: need >= 2 levels, got %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	l := &Levels{Dim: dim, vecs: make([]HV, n)}
	l.vecs[0] = RandHV(dim, rng)
	// Total flips from level 0 to n-1 is dim/2 (orthogonal ends), spread
	// evenly over a random permutation of positions.
	perm := rng.Perm(dim)
	flipsTotal := dim / 2
	for i := 1; i < n; i++ {
		l.vecs[i] = l.vecs[i-1].Clone()
		lo := flipsTotal * (i - 1) / (n - 1)
		hi := flipsTotal * i / (n - 1)
		for _, p := range perm[lo:hi] {
			l.vecs[i].SetBit(p, !l.vecs[i].Bit(p))
		}
	}
	return l
}

// VecAt returns the hypervector of a level index directly.
func (l *Levels) VecAt(i int) HV { return l.vecs[i] }

// Classifier is an associative memory: one accumulator per class, formed by
// bundling training encodings and refined by perceptron-style retraining.
// It scores a query by cosine similarity between the bipolar query and the
// raw integer class accumulator. That stays robust when encodings are
// strongly correlated (spatial wafer-map encodings share a large common
// mode), because magnitude information survives; Hamming distance to a
// binarized prototype does not (EXPERIMENTS T3).
type Classifier struct {
	Dim      int
	NClasses int
	acc      []*Bundler
	norms    []float64 // squared L2 norms of the accumulators
}

// NewClassifier returns an untrained classifier.
func NewClassifier(dim, nClasses int) *Classifier {
	c := &Classifier{Dim: dim, NClasses: nClasses}
	c.acc = make([]*Bundler, nClasses)
	for i := range c.acc {
		c.acc[i] = NewBundler(dim)
	}
	return c
}

// Train bundles each encoding into its class accumulator and rebuilds the
// norms.
func (c *Classifier) Train(enc []HV, labels []int) error {
	if len(enc) != len(labels) {
		return fmt.Errorf("hdc: %d encodings for %d labels", len(enc), len(labels))
	}
	for i, h := range enc {
		l := labels[i]
		if l < 0 || l >= c.NClasses {
			return fmt.Errorf("hdc: label %d out of range", l)
		}
		c.acc[l].Add(h)
	}
	c.rebuild()
	return nil
}

func (c *Classifier) rebuild() {
	c.norms = make([]float64, c.NClasses)
	for i, b := range c.acc {
		n := 0.0
		for _, v := range b.counts {
			n += float64(v) * float64(v)
		}
		c.norms[i] = n
	}
}

// Predict returns the class whose integer accumulator has the maximum
// cosine similarity with the query.
//
// Predict only reads the trained state, so any number of goroutines may
// call it concurrently on one fitted classifier (the serving hot path) as
// long as no Train/Retrain/UnmarshalBinary runs at the same time.
func (c *Classifier) Predict(h HV) int {
	best, bestS := 0, -1e308
	for cl, b := range c.acc {
		if c.norms[cl] == 0 {
			continue
		}
		// dot(bipolar(h), counts): set bit contributes +count, clear -count.
		var dot int64
		for wi, word := range h {
			base := wi * 64
			end := c.Dim - base
			if end > 64 {
				end = 64
			}
			cnt := b.counts[base : base+end]
			for bit := range cnt {
				if word>>uint(bit)&1 == 1 {
					dot += int64(cnt[bit])
				} else {
					dot -= int64(cnt[bit])
				}
			}
		}
		s := float64(dot) / math.Sqrt(c.norms[cl])
		if s > bestS {
			best, bestS = cl, s
		}
	}
	return best
}

// Retrain performs perceptron-style refinement: for every misclassified
// sample, the true class accumulator is reinforced and the wrongly
// predicted class weakened. It returns the per-epoch error counts
// (experiment F5's convergence curve).
func (c *Classifier) Retrain(enc []HV, labels []int, epochs int) []int {
	errs := make([]int, 0, epochs)
	for e := 0; e < epochs; e++ {
		wrong := 0
		for i, h := range enc {
			pred := c.Predict(h)
			if pred != labels[i] {
				wrong++
				c.acc[labels[i]].AddWeighted(h, 1)
				c.acc[pred].AddWeighted(h, -1)
			}
		}
		c.rebuild()
		errs = append(errs, wrong)
		if wrong == 0 {
			break
		}
	}
	return errs
}
