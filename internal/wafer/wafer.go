// Package wafer synthesizes wafer-map defect patterns matching the
// canonical classes of the WM-811K industrial dataset (Center, Donut,
// Edge-Loc, Edge-Ring, Loc, Scratch, Random, Near-Full, None) and converts
// maps into classical feature vectors and hyperdimensional encodings. It is
// the data substrate of the wafer-classification experiments (T3/F1/F5):
// the industrial dataset itself is proprietary-adjacent, so a parametric
// generator with the same label space and spatial statistics stands in.
package wafer

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/hdc"
)

// Class labels the defect pattern family.
type Class int

// Defect pattern classes (the WM-811K label space).
const (
	None Class = iota
	Center
	Donut
	EdgeLoc
	EdgeRing
	Loc
	Scratch
	Random
	NearFull
	NumClasses
)

var classNames = [...]string{
	"None", "Center", "Donut", "Edge-Loc", "Edge-Ring",
	"Loc", "Scratch", "Random", "Near-Full",
}

// String returns the canonical class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Die states on the map.
const (
	OffDie uint8 = iota
	Pass
	Fail
)

// Map is a square wafer map; dies outside the circular wafer are OffDie.
type Map struct {
	Size  int
	Cells []uint8
	Label Class
	// IsMixed marks maps carrying a second superposed pattern (MixedWith).
	IsMixed   bool
	MixedWith Class
}

// At returns the state of die (row, col).
func (m *Map) At(r, c int) uint8 { return m.Cells[r*m.Size+c] }

func (m *Map) set(r, c int, v uint8) { m.Cells[r*m.Size+c] = v }

// FailFraction returns failing dies / on-wafer dies.
func (m *Map) FailFraction() float64 {
	fail, on := 0, 0
	for _, v := range m.Cells {
		if v != OffDie {
			on++
			if v == Fail {
				fail++
			}
		}
	}
	if on == 0 {
		return 0
	}
	return float64(fail) / float64(on)
}

// Config controls map synthesis.
type Config struct {
	Size     int     // grid edge (default 64)
	Noise    float64 // background random-fail probability (default 0.01)
	PatternP float64 // probability a pattern die actually fails (default 0.85)
}

// DefaultConfig returns the standard generation parameters.
func DefaultConfig() Config { return Config{Size: 64, Noise: 0.01, PatternP: 0.85} }

// Generate synthesizes one wafer map of the given class.
func Generate(class Class, cfg Config, rng *rand.Rand) *Map {
	if cfg.Size == 0 {
		cfg = DefaultConfig()
	}
	n := cfg.Size
	m := &Map{Size: n, Cells: make([]uint8, n*n), Label: class}
	cx := float64(n-1) / 2
	radius := float64(n)/2 - 0.5

	// Wafer disc with background noise.
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			dx, dy := float64(c)-cx, float64(r)-cx
			if math.Hypot(dx, dy) > radius {
				continue // off-die
			}
			if rng.Float64() < cfg.Noise {
				m.set(r, c, Fail)
			} else {
				m.set(r, c, Pass)
			}
		}
	}

	inPattern := patternPredicate(class, radius, rng)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if m.At(r, c) == OffDie {
				continue
			}
			dx, dy := float64(c)-cx, float64(r)-cx
			if inPattern(dx, dy) && rng.Float64() < cfg.PatternP {
				m.set(r, c, Fail)
			}
		}
	}
	return m
}

// patternPredicate returns a membership test over die coordinates relative
// to the wafer center.
func patternPredicate(class Class, radius float64, rng *rand.Rand) func(dx, dy float64) bool {
	switch class {
	case None:
		return func(dx, dy float64) bool { return false }
	case Center:
		rr := radius * (0.25 + rng.Float64()*0.15)
		return func(dx, dy float64) bool { return math.Hypot(dx, dy) < rr }
	case Donut:
		inner := radius * (0.30 + rng.Float64()*0.10)
		outer := inner + radius*(0.20+rng.Float64()*0.10)
		return func(dx, dy float64) bool {
			d := math.Hypot(dx, dy)
			return d >= inner && d <= outer
		}
	case EdgeLoc:
		band := radius * 0.82
		center := rng.Float64() * 2 * math.Pi
		width := math.Pi/6 + rng.Float64()*math.Pi/6 // 30..60 degrees
		return func(dx, dy float64) bool {
			if math.Hypot(dx, dy) < band {
				return false
			}
			ang := math.Atan2(dy, dx)
			diff := math.Abs(angleDiff(ang, center))
			return diff < width
		}
	case EdgeRing:
		band := radius * (0.85 + rng.Float64()*0.05)
		return func(dx, dy float64) bool { return math.Hypot(dx, dy) >= band }
	case Loc:
		// Blob at a random interior position.
		ang := rng.Float64() * 2 * math.Pi
		dist := radius * (0.2 + rng.Float64()*0.4)
		bx, by := dist*math.Cos(ang), dist*math.Sin(ang)
		rr := radius * (0.12 + rng.Float64()*0.10)
		return func(dx, dy float64) bool { return math.Hypot(dx-bx, dy-by) < rr }
	case Scratch:
		// Line through a random chord: |distance to line| < thickness.
		theta := rng.Float64() * math.Pi
		offset := (rng.Float64()*1.2 - 0.6) * radius
		nx, ny := math.Cos(theta), math.Sin(theta)
		thick := 0.8 + rng.Float64()*0.8
		return func(dx, dy float64) bool {
			return math.Abs(dx*nx+dy*ny-offset) < thick
		}
	case Random:
		p := 0.20 + rng.Float64()*0.10
		return func(dx, dy float64) bool { return rng.Float64() < p }
	case NearFull:
		return func(dx, dy float64) bool { return rng.Float64() < 0.95 }
	}
	panic(fmt.Sprintf("wafer: unknown class %d", class))
}

func angleDiff(a, b float64) float64 {
	d := math.Mod(a-b+3*math.Pi, 2*math.Pi) - math.Pi
	return d
}

// GenerateMixed superposes two defect patterns on one wafer — the
// mixed-type maps of the modern WM-811K follow-up work. The returned map
// carries classA as its label; MixedWith records the second pattern.
func GenerateMixed(classA, classB Class, cfg Config, rng *rand.Rand) *Map {
	if cfg.Size == 0 {
		cfg = DefaultConfig()
	}
	m := Generate(classA, cfg, rng)
	radius := float64(cfg.Size)/2 - 0.5
	inB := patternPredicate(classB, radius, rng)
	cx := float64(cfg.Size-1) / 2
	for r := 0; r < cfg.Size; r++ {
		for c := 0; c < cfg.Size; c++ {
			if m.At(r, c) == OffDie {
				continue
			}
			dx, dy := float64(c)-cx, float64(r)-cx
			if inB(dx, dy) && rng.Float64() < cfg.PatternP {
				m.set(r, c, Fail)
			}
		}
	}
	m.MixedWith = classB
	m.IsMixed = true
	return m
}

// Dataset is a labeled collection of wafer maps.
type Dataset struct {
	Maps   []*Map
	Labels []int
}

// GenerateDataset creates nPerClass maps for every class, deterministically
// from the seed, interleaved so positional splits stay stratified.
func GenerateDataset(nPerClass int, cfg Config, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < nPerClass; i++ {
		for c := Class(0); c < NumClasses; c++ {
			d.Maps = append(d.Maps, Generate(c, cfg, rng))
			d.Labels = append(d.Labels, int(c))
		}
	}
	return d
}

// NumFeatures is the classical feature-vector length produced by Features.
const NumFeatures = 16 + 6 + 8 + 2

// Features converts a map into the classical feature vector used by the
// baseline ML classifiers: a 4×4 zonal fail-density grid, 6 radial-ring
// densities, 8 angular-sector densities, the total fail fraction and a
// fail-cluster elongation measure.
func Features(m *Map) []float64 {
	n := m.Size
	cx := float64(n-1) / 2
	radius := float64(n)/2 - 0.5
	f := make([]float64, NumFeatures)
	zoneFail := make([]float64, 16)
	zoneTot := make([]float64, 16)
	ringFail := make([]float64, 6)
	ringTot := make([]float64, 6)
	secFail := make([]float64, 8)
	secTot := make([]float64, 8)
	var sumX, sumY, sumXX, sumYY, sumXY, fails, tot float64
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := m.At(r, c)
			if v == OffDie {
				continue
			}
			tot++
			dx, dy := float64(c)-cx, float64(r)-cx
			zi := (r*4/n)*4 + (c * 4 / n)
			ri := int(math.Hypot(dx, dy) / radius * 6)
			if ri > 5 {
				ri = 5
			}
			si := int((math.Atan2(dy, dx) + math.Pi) / (2 * math.Pi) * 8)
			if si > 7 {
				si = 7
			}
			zoneTot[zi]++
			ringTot[ri]++
			secTot[si]++
			if v == Fail {
				fails++
				zoneFail[zi]++
				ringFail[ri]++
				secFail[si]++
				sumX += dx
				sumY += dy
				sumXX += dx * dx
				sumYY += dy * dy
				sumXY += dx * dy
			}
		}
	}
	k := 0
	for i := 0; i < 16; i++ {
		if zoneTot[i] > 0 {
			f[k] = zoneFail[i] / zoneTot[i]
		}
		k++
	}
	for i := 0; i < 6; i++ {
		if ringTot[i] > 0 {
			f[k] = ringFail[i] / ringTot[i]
		}
		k++
	}
	for i := 0; i < 8; i++ {
		if secTot[i] > 0 {
			f[k] = secFail[i] / secTot[i]
		}
		k++
	}
	if tot > 0 {
		f[k] = fails / tot
	}
	k++
	// Elongation: ratio of principal second moments of the fail cloud
	// (high for scratches, ~1 for blobs/rings).
	if fails > 2 {
		mx, my := sumX/fails, sumY/fails
		cxx := sumXX/fails - mx*mx
		cyy := sumYY/fails - my*my
		cxy := sumXY/fails - mx*my
		tr, det := cxx+cyy, cxx*cyy-cxy*cxy
		disc := math.Sqrt(math.Max(tr*tr/4-det, 0))
		l1, l2 := tr/2+disc, tr/2-disc
		if l2 > 1e-9 {
			f[k] = math.Min(l1/l2, 100) / 100
		} else {
			f[k] = 1
		}
	}
	return f
}

// FeatureMatrix applies Features to every map.
func (d *Dataset) FeatureMatrix() [][]float64 {
	X := make([][]float64, len(d.Maps))
	for i, m := range d.Maps {
		X[i] = Features(m)
	}
	return X
}

// Encoder turns wafer maps into hypervectors with the holistic-record
// scheme: every on-wafer die contributes bind(rowLevel, colLevel, state),
// where state is a random marker for Pass or Fail; the map encoding is the
// majority bundle. Encoding pass dies as well retains fail-density
// information (distinguishing e.g. Random from Near-Full) and keeps
// defect-free maps meaningful.
type Encoder struct {
	Dim      int
	size     int
	seed     int64
	rows     *hdc.Levels
	cols     *hdc.Levels
	failMark hdc.HV
	passMark hdc.HV
	passVecs []hdc.HV // per (r,c): bind(rowLevel, colLevel, passMark)
	failVecs []hdc.HV // per (r,c): bind(rowLevel, colLevel, failMark)
	// Delta-encoding cache: the bundle of all-pass votes over one on-die
	// mask. Regenerated whenever a map with a different mask arrives; all
	// maps of one grid size share the wafer disc, so this hits every time.
	// Guarded by mu so concurrent Encode calls (the serving hot path) stay
	// safe; a cached bundle is never mutated after publication — refreshes
	// install a freshly built replacement.
	mu       sync.RWMutex
	baseMask []bool
	base     *hdc.Bundler
}

// failWeight is the vote weight of a failing die relative to a passing
// die: fails carry the pattern signal and must not be drowned out by the
// pass background (tuned on held-out data).
const failWeight = 8

// NewEncoder builds an encoder for size×size maps. Position vectors for
// every die are precomputed so per-map encoding only touches failing dies.
func NewEncoder(dim, size int, seed int64) *Encoder {
	marks := hdc.NewItemMemory(dim, seed+2)
	e := &Encoder{
		Dim:      dim,
		size:     size,
		seed:     seed,
		rows:     hdc.NewLevels(dim, size, seed),
		cols:     hdc.NewLevels(dim, size, seed+1),
		failMark: marks.Get(0),
		passMark: marks.Get(1),
	}
	e.passVecs = make([]hdc.HV, size*size)
	e.failVecs = make([]hdc.HV, size*size)
	for r := 0; r < size; r++ {
		for c := 0; c < size; c++ {
			pos := e.rows.VecAt(r).Xor(e.cols.VecAt(c))
			e.passVecs[r*size+c] = pos.Xor(e.passMark)
			e.failVecs[r*size+c] = pos.Xor(e.failMark)
		}
	}
	return e
}

// Encode returns the map's hypervector. The map must match the encoder's
// grid size. Encode is safe for concurrent use: the shared base-bundle
// cache is lock-protected and every call works on its own clone.
func (e *Encoder) Encode(m *Map) hdc.HV {
	if m.Size != e.size {
		panic(fmt.Sprintf("wafer: encoder built for size %d, map has %d", e.size, m.Size))
	}
	base := e.baseFor(m)
	if base.N() == 0 {
		return hdc.NewHV(e.Dim) // fully off-die map: zero vector
	}
	// Delta from the all-pass base: swap each failing die's pass vote for
	// a weighted fail vote.
	b := base.Clone()
	for i, v := range m.Cells {
		if v == Fail {
			b.AddWeighted(e.passVecs[i], -1)
			b.AddWeighted(e.failVecs[i], failWeight)
		}
	}
	return b.Binarize()
}

// baseFor returns the all-pass base bundle for the map's on-die mask,
// refreshing the cache when the mask changes. The returned bundle is
// immutable once published, so callers may clone it outside the lock.
func (e *Encoder) baseFor(m *Map) *hdc.Bundler {
	e.mu.RLock()
	if e.maskMatches(m) {
		b := e.base
		e.mu.RUnlock()
		return b
	}
	e.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.maskMatches(m) { // refreshed by a concurrent caller
		return e.base
	}
	mask := make([]bool, len(m.Cells))
	base := hdc.NewBundler(e.Dim)
	for i, v := range m.Cells {
		if v != OffDie {
			mask[i] = true
			base.Add(e.passVecs[i])
		}
	}
	e.baseMask, e.base = mask, base
	return base
}

func (e *Encoder) maskMatches(m *Map) bool {
	if e.baseMask == nil || len(e.baseMask) != len(m.Cells) {
		return false
	}
	for i, v := range m.Cells {
		if e.baseMask[i] != (v != OffDie) {
			return false
		}
	}
	return true
}

// EncodeAll encodes every map in the dataset.
func (e *Encoder) EncodeAll(d *Dataset) []hdc.HV {
	out := make([]hdc.HV, len(d.Maps))
	for i, m := range d.Maps {
		out[i] = e.Encode(m)
	}
	return out
}
