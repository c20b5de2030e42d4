// Package diagnosis implements stuck-at fault diagnosis from tester failure
// logs: a full-response fault dictionary is matched against the observed
// failing outputs, candidates are scored by signature similarity, and an
// optional learned scorer re-ranks the candidates (the "intelligent"
// diagnosis method of the survey, experiment T5).
package diagnosis

import (
	"math"
	"sort"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// Observation is the failure log of one defective device: the set of
// (pattern, output) coordinates at which the device response differed from
// the good-circuit response, in the same bit-sliced layout as
// fault.Signature.
type Observation struct {
	Bits [][]logic.Word // [po][word]
}

// NumFeatures is the length of the per-candidate feature vector.
const NumFeatures = 8

// Candidate is one ranked diagnosis candidate.
type Candidate struct {
	Index    int // index into the fault list
	Fault    fault.Fault
	Score    float64
	Features []float64
}

// Diagnoser matches observations against a precomputed dictionary.
type Diagnoser struct {
	Net    *circuit.Netlist
	Faults []fault.Fault
	Dict   []*fault.Signature
	scoap  *circuit.SCOAP // by position
	tpos   []int32        // gate ID -> position, to index scoap
}

// NewWorkersWords builds a diagnoser: it fault-simulates the pattern set to
// create the full-response dictionary, word-sharded across workers (<= 0
// selects GOMAXPROCS) with words pattern words per cone walk (normalized to
// {1,2,4,8}). The dictionary is bit-identical for any worker count and
// width.
func NewWorkersWords(n *circuit.Netlist, patterns *logic.PatternSet, workers, words int) (*Diagnoser, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	faults := fault.Universe(n)
	dict, err := fault.DictionaryConcurrentWords(n, patterns, faults, workers, words)
	if err != nil {
		return nil, err
	}
	return &Diagnoser{
		Net:    n,
		Faults: faults,
		Dict:   dict,
		scoap:  circuit.ComputeSCOAPCompiled(c),
		tpos:   c.Tpos,
	}, nil
}

// Observe simulates a defective device containing fault f and returns its
// failure log for the diagnoser's pattern set. noise flips each failing bit
// to passing with the given probability (tester noise / intermittence),
// using the caller's rnd function for determinism.
func Observe(n *circuit.Netlist, patterns *logic.PatternSet, f fault.Fault, noise float64, rnd func() float64) (*Observation, error) {
	fsim, err := fault.NewSimulator(n)
	if err != nil {
		return nil, err
	}
	sigs := fsim.Dictionary(patterns, []fault.Fault{f})
	obs := &Observation{Bits: sigs[0].Bits}
	if noise > 0 {
		for o := range obs.Bits {
			for w := range obs.Bits[o] {
				word := obs.Bits[o][w]
				for b := 0; b < logic.WordBits; b++ {
					if word>>uint(b)&1 == 1 && rnd() < noise {
						word &^= 1 << uint(b)
					}
				}
				obs.Bits[o][w] = word
			}
		}
	}
	return obs, nil
}

// featureVector computes similarity features between a dictionary signature
// and the observation:
//
//	0: |dict ∩ obs|        (matched failures)
//	1: |dict \ obs|        (predicted failures not observed)
//	2: |obs \ dict|        (observed failures not predicted)
//	3: Jaccard(dict, obs)
//	4: |dict|              (signature size)
//	5: |obs|               (observation size)
//	6: output-set overlap  (fraction of failing POs in common)
//	7: normalized SCOAP observability of the candidate site
func (d *Diagnoser) featureVector(sig *fault.Signature, obs *Observation, f fault.Fault) []float64 {
	var inter, onlyDict, onlyObs int
	dictPOs, obsPOs, bothPOs := 0, 0, 0
	for o := range sig.Bits {
		var dAny, oAny bool
		for w := range sig.Bits[o] {
			dw, ow := sig.Bits[o][w], obs.Bits[o][w]
			inter += logic.PopCount(dw & ow)
			onlyDict += logic.PopCount(dw &^ ow)
			onlyObs += logic.PopCount(ow &^ dw)
			dAny = dAny || dw != 0
			oAny = oAny || ow != 0
		}
		if dAny {
			dictPOs++
		}
		if oAny {
			obsPOs++
		}
		if dAny && oAny {
			bothPOs++
		}
	}
	union := inter + onlyDict + onlyObs
	jacc := 0.0
	if union > 0 {
		jacc = float64(inter) / float64(union)
	}
	poOverlap := 0.0
	if m := maxInt(dictPOs, obsPOs); m > 0 {
		poOverlap = float64(bothPOs) / float64(m)
	}
	co := float64(d.scoap.CO[d.tpos[f.Gate]])
	coNorm := co / (co + 10)
	return []float64{
		float64(inter), float64(onlyDict), float64(onlyObs), jacc,
		float64(inter + onlyDict), float64(inter + onlyObs),
		poOverlap, coNorm,
	}
}

// Scorer maps a candidate feature vector to a matching score; higher is a
// better match. It is the hook for the learned ranker.
type Scorer interface {
	Score(features []float64) float64
}

// JaccardScorer is the classical baseline: rank purely by Jaccard
// similarity between predicted and observed failure sets, with a small
// penalty for mispredictions to break ties.
type JaccardScorer struct{}

// Score implements Scorer.
func (JaccardScorer) Score(f []float64) float64 {
	return f[3] - 1e-4*(f[1]+f[2])
}

// Diagnose ranks all dictionary faults against the observation using the
// given scorer (JaccardScorer when nil). Faults whose signature shares no
// failure with the observation are pruned unless everything would be
// pruned.
func (d *Diagnoser) Diagnose(obs *Observation, scorer Scorer) []Candidate {
	if scorer == nil {
		scorer = JaccardScorer{}
	}
	cands := make([]Candidate, 0, len(d.Faults))
	for i, f := range d.Faults {
		fv := d.featureVector(d.Dict[i], obs, f)
		if fv[0] == 0 { // no shared failures: implausible candidate
			continue
		}
		cands = append(cands, Candidate{
			Index: i, Fault: f, Score: scorer.Score(fv), Features: fv,
		})
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].Score != cands[b].Score {
			return cands[a].Score > cands[b].Score
		}
		return cands[a].Index < cands[b].Index // deterministic tie-break
	})
	return cands
}

// HitRank returns the 1-based rank of the true fault in the candidate list,
// counting score-equivalent candidates conservatively (a tie at the top
// still counts as rank within the tie group). Returns 0 when absent.
// Because structurally equivalent faults are indistinguishable by any
// response-based diagnosis, a candidate whose signature is identical to the
// true fault's counts as a hit.
func (d *Diagnoser) HitRank(cands []Candidate, trueIdx int) int {
	trueSig := d.Dict[trueIdx]
	for r, c := range cands {
		if c.Index == trueIdx || sameSignature(d.Dict[c.Index], trueSig) {
			return r + 1
		}
	}
	return 0
}

func sameSignature(a, b *fault.Signature) bool {
	if len(a.Bits) != len(b.Bits) {
		return false
	}
	for o := range a.Bits {
		for w := range a.Bits[o] {
			if a.Bits[o][w] != b.Bits[o][w] {
				return false
			}
		}
	}
	return true
}

// TrainingExample is one labeled candidate for fitting a learned scorer.
type TrainingExample struct {
	Features []float64
	Label    float64 // 1 = candidate is (equivalent to) the true fault
}

// TrainingSet generates labeled candidate examples by injecting each fault
// in sample (indices into d.Faults), observing it with the given noise, and
// emitting every surviving candidate as an example. rnd supplies
// determinism for the noise process.
func (d *Diagnoser) TrainingSet(patterns *logic.PatternSet, sample []int, noise float64, rnd func() float64) ([]TrainingExample, error) {
	var out []TrainingExample
	for _, fi := range sample {
		obs, err := Observe(d.Net, patterns, d.Faults[fi], noise, rnd)
		if err != nil {
			return nil, err
		}
		cands := d.Diagnose(obs, nil)
		trueSig := d.Dict[fi]
		for _, c := range cands {
			label := 0.0
			if c.Index == fi || sameSignature(d.Dict[c.Index], trueSig) {
				label = 1.0
			}
			out = append(out, TrainingExample{Features: c.Features, Label: label})
		}
	}
	return out, nil
}

// Accuracy summarizes a diagnosis evaluation run.
type Accuracy struct {
	Cases    int
	Top1     int
	Top5     int
	MeanRank float64
	NoCand   int // cases where the true fault never appeared
}

// Top1Rate returns the top-1 hit fraction.
func (a Accuracy) Top1Rate() float64 { return rate(a.Top1, a.Cases) }

// Top5Rate returns the top-5 hit fraction.
func (a Accuracy) Top5Rate() float64 { return rate(a.Top5, a.Cases) }

func rate(n, d int) float64 {
	if d == 0 {
		return math.NaN()
	}
	return float64(n) / float64(d)
}

// Evaluate injects each fault index in cases, diagnoses with the scorer and
// accumulates ranking accuracy.
func (d *Diagnoser) Evaluate(patterns *logic.PatternSet, cases []int, noise float64, rnd func() float64, scorer Scorer) (Accuracy, error) {
	var acc Accuracy
	totalRank := 0
	for _, fi := range cases {
		obs, err := Observe(d.Net, patterns, d.Faults[fi], noise, rnd)
		if err != nil {
			return acc, err
		}
		cands := d.Diagnose(obs, scorer)
		r := d.HitRank(cands, fi)
		acc.Cases++
		if r == 0 {
			acc.NoCand++
			continue
		}
		if r == 1 {
			acc.Top1++
		}
		if r <= 5 {
			acc.Top5++
		}
		totalRank += r
	}
	if hit := acc.Cases - acc.NoCand; hit > 0 {
		acc.MeanRank = float64(totalRank) / float64(hit)
	}
	return acc, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
