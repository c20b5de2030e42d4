// Package outlier implements adaptive test and outlier screening on
// parametric test data: a correlated-measurement synthesizer with injected
// latent defects, classical part-average-testing (PAT) screens, Mahalanobis
// and k-NN outlier scores, and the escape-vs-overkill tradeoff analysis of
// experiment F3.
package outlier

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// LotConfig controls synthetic lot generation.
type LotConfig struct {
	Devices    int     // devices in the lot
	Tests      int     // parametric tests per device
	Factors    int     // latent process factors driving correlation
	DefectRate float64 // fraction of devices carrying a latent defect
	DefectMag  float64 // defect shift magnitude in sigma units
	DefectLoc  int     // number of tests a defect perturbs
	NoiseSigma float64 // per-test measurement noise
}

// DefaultLotConfig returns a realistic mid-size lot.
func DefaultLotConfig() LotConfig {
	return LotConfig{
		Devices: 2000, Tests: 12, Factors: 3,
		DefectRate: 0.02, DefectMag: 1.6, DefectLoc: 3,
		NoiseSigma: 0.3,
	}
}

// Lot is a synthesized wafer lot: per-device test measurements and the
// ground-truth defect labels the screen tries to recover.
type Lot struct {
	X         [][]float64
	Defective []bool
}

// Synthesize draws a lot: healthy devices follow a correlated multivariate
// normal (factor model X = L·z + noise); defective devices additionally
// shift a random subset of tests. Marginal defects (half the magnitude)
// make the screening problem realistically imperfect.
func Synthesize(cfg LotConfig, seed int64) *Lot {
	if cfg.Devices < 1 || cfg.Tests < 1 || cfg.Factors < 1 {
		panic(fmt.Sprintf("outlier: bad lot config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(seed))
	// Factor loadings.
	L := make([][]float64, cfg.Tests)
	for t := range L {
		L[t] = make([]float64, cfg.Factors)
		for f := range L[t] {
			L[t][f] = rng.NormFloat64() * 0.8
		}
	}
	lot := &Lot{X: make([][]float64, cfg.Devices), Defective: make([]bool, cfg.Devices)}
	z := make([]float64, cfg.Factors)
	for d := 0; d < cfg.Devices; d++ {
		for f := range z {
			z[f] = rng.NormFloat64()
		}
		row := make([]float64, cfg.Tests)
		for t := 0; t < cfg.Tests; t++ {
			v := 0.0
			for f := range z {
				v += L[t][f] * z[f]
			}
			row[t] = v + rng.NormFloat64()*cfg.NoiseSigma
		}
		if rng.Float64() < cfg.DefectRate {
			lot.Defective[d] = true
			mag := cfg.DefectMag
			if rng.Float64() < 0.5 {
				mag /= 2 // marginal defect: harder to catch
			}
			perm := rng.Perm(cfg.Tests)
			nloc := cfg.DefectLoc
			if nloc > cfg.Tests {
				nloc = cfg.Tests
			}
			for _, t := range perm[:nloc] {
				sign := 1.0
				if rng.Float64() < 0.5 {
					sign = -1
				}
				row[t] += sign * mag
			}
		}
		lot.X[d] = row
	}
	return lot
}

// Scorer assigns an outlier score (higher = more anomalous) after fitting a
// reference population.
//
// Concurrency contract: Score on every implementation in this package is a
// pure read of the fitted state, so one fitted scorer may serve any number
// of concurrent Score calls (the itrserve hot path) as long as no
// Fit/UnmarshalBinary runs at the same time.
type Scorer interface {
	Fit(ref [][]float64) error
	Score(x []float64) float64
}

// ZScorePAT is classical part-average testing: per-test robust z-scores
// (median / MAD), aggregated as the maximum across tests.
type ZScorePAT struct {
	med []float64
	mad []float64
}

// Fit estimates per-test robust location/scale.
func (s *ZScorePAT) Fit(ref [][]float64) error {
	if len(ref) == 0 {
		return fmt.Errorf("outlier: empty reference")
	}
	d := len(ref[0])
	s.med = make([]float64, d)
	s.mad = make([]float64, d)
	col := make([]float64, len(ref))
	for t := 0; t < d; t++ {
		for i := range ref {
			col[i] = ref[i][t]
		}
		sort.Float64s(col)
		s.med[t] = median(col)
		for i := range ref {
			col[i] = math.Abs(ref[i][t] - s.med[t])
		}
		sort.Float64s(col)
		s.mad[t] = median(col) * 1.4826 // normal-consistent MAD
		if s.mad[t] < 1e-9 {
			s.mad[t] = 1e-9
		}
	}
	return nil
}

// Score returns the max absolute robust z across tests.
func (s *ZScorePAT) Score(x []float64) float64 {
	worst := 0.0
	for t, v := range x {
		z := math.Abs(v-s.med[t]) / s.mad[t]
		if z > worst {
			worst = z
		}
	}
	return worst
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Mahalanobis scores by the Mahalanobis distance under the reference mean
// and covariance — the multivariate screen that exploits test correlation.
type Mahalanobis struct {
	mean []float64
	inv  [][]float64 // inverse covariance
}

// Fit estimates the mean and inverse covariance (ridge-stabilized).
func (s *Mahalanobis) Fit(ref [][]float64) error {
	n := len(ref)
	if n < 2 {
		return fmt.Errorf("outlier: need >= 2 reference devices")
	}
	d := len(ref[0])
	s.mean = make([]float64, d)
	for _, row := range ref {
		for t, v := range row {
			s.mean[t] += v
		}
	}
	for t := range s.mean {
		s.mean[t] /= float64(n)
	}
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range ref {
		for i := 0; i < d; i++ {
			di := row[i] - s.mean[i]
			for j := i; j < d; j++ {
				cov[i][j] += di * (row[j] - s.mean[j])
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] /= float64(n - 1)
			cov[j][i] = cov[i][j]
		}
		cov[i][i] += 1e-6 // ridge for numerical safety
	}
	inv, err := invert(cov)
	if err != nil {
		return fmt.Errorf("outlier: covariance inversion: %w", err)
	}
	s.inv = inv
	return nil
}

// Score returns sqrt((x-μ)ᵀ Σ⁻¹ (x-μ)).
func (s *Mahalanobis) Score(x []float64) float64 {
	d := len(s.mean)
	diff := make([]float64, d)
	for i := range diff {
		diff[i] = x[i] - s.mean[i]
	}
	q := 0.0
	for i := 0; i < d; i++ {
		row := s.inv[i]
		for j := 0; j < d; j++ {
			q += diff[i] * row[j] * diff[j]
		}
	}
	if q < 0 {
		q = 0
	}
	return math.Sqrt(q)
}

// invert computes a matrix inverse by Gauss-Jordan with partial pivoting.
func invert(a [][]float64) ([][]float64, error) {
	n := len(a)
	aug := make([][]float64, n)
	for i := range aug {
		aug[i] = make([]float64, 2*n)
		copy(aug[i], a[i])
		aug[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[p][col]) {
				p = r
			}
		}
		if math.Abs(aug[p][col]) < 1e-12 {
			return nil, fmt.Errorf("singular matrix at column %d", col)
		}
		aug[col], aug[p] = aug[p], aug[col]
		piv := aug[col][col]
		for c := 0; c < 2*n; c++ {
			aug[col][c] /= piv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug[r][col]
			if f == 0 {
				continue
			}
			for c := 0; c < 2*n; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	inv := make([][]float64, n)
	for i := range inv {
		inv[i] = aug[i][n:]
	}
	return inv, nil
}

// KNNOutlier scores by the Euclidean distance to the k-th nearest reference
// device — the non-parametric ML screen of the survey.
type KNNOutlier struct {
	K   int
	ref [][]float64
}

// Fit memorizes the reference lot.
func (s *KNNOutlier) Fit(ref [][]float64) error {
	if len(ref) == 0 {
		return fmt.Errorf("outlier: empty reference")
	}
	if s.K < 1 {
		s.K = 5
	}
	if s.K > len(ref) {
		s.K = len(ref)
	}
	s.ref = ref
	return nil
}

// Score returns the distance to the k-th nearest reference point.
func (s *KNNOutlier) Score(x []float64) float64 {
	ds := make([]float64, len(s.ref))
	for i, r := range s.ref {
		sum := 0.0
		for j := range r {
			d := r[j] - x[j]
			sum += d * d
		}
		ds[i] = sum
	}
	sort.Float64s(ds)
	return math.Sqrt(ds[s.K-1])
}

// Point is one operating point of the screening tradeoff.
type Point struct {
	Threshold    float64
	EscapeRate   float64 // defective devices passed / defective total
	OverkillRate float64 // healthy devices rejected / healthy total
}

// Sweep scores every device and sweeps the decision threshold over the
// observed score range, returning the escape/overkill curve (figure F3).
// Degenerate lots stay well-defined: an empty input yields an empty curve,
// all-pass (or all-defective) lots report a zero escape (or overkill) rate
// at every threshold, and fully tied scores collapse to identical points.
func Sweep(scores []float64, defective []bool, nPoints int) []Point {
	if len(scores) != len(defective) {
		panic(fmt.Sprintf("outlier: %d scores for %d labels", len(scores), len(defective)))
	}
	if len(scores) == 0 {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	nDef, nOK := 0, 0
	for i, s := range scores {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
		if defective[i] {
			nDef++
		} else {
			nOK++
		}
	}
	if nPoints < 2 {
		nPoints = 2
	}
	out := make([]Point, 0, nPoints)
	for k := 0; k < nPoints; k++ {
		th := lo + (hi-lo)*float64(k)/float64(nPoints-1)
		esc, over := 0, 0
		for i, s := range scores {
			rejected := s > th
			if defective[i] && !rejected {
				esc++
			}
			if !defective[i] && rejected {
				over++
			}
		}
		p := Point{Threshold: th}
		if nDef > 0 {
			p.EscapeRate = float64(esc) / float64(nDef)
		}
		if nOK > 0 {
			p.OverkillRate = float64(over) / float64(nOK)
		}
		out = append(out, p)
	}
	return out
}

// AUC returns the area under the ROC curve of the scores against the
// defect labels (probability a random defective scores above a random
// healthy device; ties count half). Degenerate lots with only one class
// present (all-pass, all-defective, or empty) carry no ranking information
// and return the chance level 0.5 rather than NaN.
func AUC(scores []float64, defective []bool) float64 {
	var pos, neg []float64
	for i, s := range scores {
		if defective[i] {
			pos = append(pos, s)
		} else {
			neg = append(neg, s)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return 0.5
	}
	wins := 0.0
	for _, p := range pos {
		for _, n := range neg {
			switch {
			case p > n:
				wins++
			case p == n:
				wins += 0.5
			}
		}
	}
	return wins / float64(len(pos)*len(neg))
}

// ScoreAll applies a scorer to every device.
func ScoreAll(s Scorer, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = s.Score(x)
	}
	return out
}
