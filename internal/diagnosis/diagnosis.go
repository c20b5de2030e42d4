// Package diagnosis implements stuck-at fault diagnosis from tester failure
// logs: a full-response fault dictionary is matched against the observed
// failing outputs, candidates are scored by signature similarity, and an
// optional learned scorer re-ranks the candidates (the "intelligent"
// diagnosis method of the survey, experiment T5).
package diagnosis

import (
	"fmt"
	"math"
	"slices"
	"sync"

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

// NumFeatures is the length of the per-candidate feature vector a Scorer
// reads and TrainingExample.Features holds:
//
//	0: |dict ∩ obs|        (matched failures)
//	1: |dict \ obs|        (predicted failures not observed)
//	2: |obs \ dict|        (observed failures not predicted)
//	3: Jaccard(dict, obs)
//	4: |dict|              (signature size)
//	5: |obs|               (observation size)
//	6: output-set overlap  (failing POs in common over the larger count)
//	7: normalized SCOAP observability of the candidate site
const NumFeatures = 8

// Candidate is one ranked diagnosis candidate. Its feature vector is not
// kept: TrainingSet returns the vectors of the candidates it ranks.
type Candidate struct {
	Index int // index into the fault list
	Fault fault.Fault
	Score float64
}

// Diagnoser matches observations against a precomputed dictionary. Dict is
// read-only after construction: Diagnose ranks from per-fault summaries
// computed from it once, and from its PO-major columns.
type Diagnoser struct {
	Net    *circuit.Netlist
	Faults []fault.Fault
	Dict   []*fault.Signature
	sums   []faultSummary // by fault index
	cols   [][]logic.Word // cols[po]: fault.Column(Dict, po)
	words  int            // words of each row
}

// faultSummary holds the features of a dictionary fault that do not depend
// on the observation.
type faultSummary struct {
	size   int     // |sig|: failing (pattern, PO) bits
	pos    int     // POs whose row is nonzero
	coNorm float64 // normalized SCOAP observability of the fault site
}

// NewWorkersWords is New with both options given positionally. Only
// perfbench calls it; the benchmark PR that moves perfbench to
// fault.Options deletes it.
func NewWorkersWords(n *circuit.Netlist, patterns *logic.PatternSet, workers, words int) (*Diagnoser, error) {
	return New(n, patterns, fault.Options{Workers: workers, Words: words})
}

// New builds a diagnoser: it fault-simulates the pattern set to create the
// full-response dictionary with fault.DictionaryConcurrent under o. The
// dictionary is bit-identical for any worker count and width.
func New(n *circuit.Netlist, patterns *logic.PatternSet, o fault.Options) (*Diagnoser, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	faults := fault.Universe(n)
	dict, err := fault.DictionaryConcurrent(n, patterns, faults, o)
	if err != nil {
		return nil, err
	}
	scoap := circuit.ComputeSCOAPCompiled(c)
	sums := make([]faultSummary, len(faults))
	for i, sig := range dict {
		for _, row := range sig.Bits {
			var nz logic.Word
			for _, w := range row {
				sums[i].size += logic.PopCount(w)
				nz |= w
			}
			if nz != 0 {
				sums[i].pos++
			}
		}
		co := float64(scoap.CO[c.Tpos[faults[i].Gate]])
		sums[i].coNorm = co / (co + 10)
	}
	cols := make([][]logic.Word, len(n.POs))
	for o := range cols {
		cols[o] = fault.Column(dict, o)
	}
	return &Diagnoser{Net: n, Faults: faults, Dict: dict, sums: sums, cols: cols, words: patterns.Words()}, nil
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
	obs := &Observation{Bits: fsim.Dictionary(patterns, []fault.Fault{f})[0].Bits}
	obs.addNoise(noise, rnd)
	return obs, nil
}

// observe is Observe for the dictionary fault with index fi: the noiseless
// log is a copy of its dictionary row, so no simulation runs.
func (d *Diagnoser) observe(fi int, noise float64, rnd func() float64) *Observation {
	obs := &Observation{Bits: make([][]logic.Word, len(d.Dict[fi].Bits))}
	for o, row := range d.Dict[fi].Bits {
		obs.Bits[o] = append([]logic.Word(nil), row...)
	}
	obs.addNoise(noise, rnd)
	return obs
}

// addNoise flips each failing bit to passing with probability noise,
// drawing rnd once per failing bit in PO, word, bit order.
func (obs *Observation) addNoise(noise float64, rnd func() float64) {
	if noise <= 0 {
		return
	}
	for o := range obs.Bits {
		for w, word := range obs.Bits[o] {
			for b := 0; b < logic.WordBits; b++ {
				if word>>uint(b)&1 == 1 && rnd() < noise {
					word &^= 1 << uint(b)
				}
			}
			obs.Bits[o][w] = word
		}
	}
}

// Scorer maps a candidate feature vector to a matching score; higher is a
// better match. It is the hook for the learned ranker. The vector is
// Diagnose's scratch, valid only during the call.
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

// rankScratch is the working memory of one ranking, pooled so that a
// Diagnose call allocates only the candidates it returns.
type rankScratch struct {
	obsPOs []int     // POs where the observation fails
	tally  []tally   // per-fault counts over those POs, by fault index
	hits   []hit     // faults sharing a failure with it, by fault index
	fv     []float64 // the hits' feature vectors, NumFeatures each
	scores []float64 // the hits' scores
	keys   []rankKey // sort keys of the hits, in rank order after rank
	tmp    []rankKey // the radix sort's other buffer
}

// hit is a fault sharing a failure with the observation: the failing bits
// they share, and how many of the observation's failing POs the fault's
// signature also fails at.
type hit struct{ fault, inter, both int32 }

// tally is a fault's running count of a hit's inter and both.
type tally struct{ inter, both int32 }

// rankKey is a hit's place in the ranking: key (scoreKey of its score)
// ascending, then hit index.
type rankKey struct {
	key uint64
	hit int32 // index into hits
}

var scratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// Diagnose ranks all dictionary faults against the observation using the
// given scorer (JaccardScorer when nil), best score first and by fault index
// among equal scores. The observation has the dictionary's [po][word]
// shape. Faults whose signature shares no failure with the observation are
// always pruned, so an observation with no failure yields no candidates.
// Diagnose only reads the Diagnoser, so concurrent calls are safe.
func (d *Diagnoser) Diagnose(obs *Observation, scorer Scorer) []Candidate {
	sc := scratchPool.Get().(*rankScratch)
	defer scratchPool.Put(sc)
	return d.rank(obs, scorer, sc)
}

// rank is Diagnose on the caller's scratch. On return sc.keys lists the
// hits in rank order, and sc.fv holds the feature vector of hit k at
// [k*NumFeatures, (k+1)*NumFeatures).
func (d *Diagnoser) rank(obs *Observation, scorer Scorer, sc *rankScratch) []Candidate {
	if scorer == nil {
		scorer = JaccardScorer{}
	}
	// Only the POs where the log fails can share a failure with a fault;
	// every other feature follows from the counts below and the summaries.
	obsPOs := sc.obsPOs[:0]
	obsSize := 0
	for o, row := range obs.Bits {
		var nz logic.Word
		for _, w := range row {
			obsSize += logic.PopCount(w)
			nz |= w
		}
		if nz != 0 {
			obsPOs = append(obsPOs, o)
		}
	}
	// One counting pass per failing PO streams its column, every fault's
	// row in fault order.
	nf, W := len(d.Faults), d.words
	tl := slices.Grow(sc.tally[:0], nf)[:nf]
	clear(tl)
	for _, o := range obsPOs {
		tallyColumn(tl, d.cols[o], obs.Bits[o], W)
	}
	// A fault sharing a failure has a nonzero signature, so the hits are
	// the faults with inter > 0, in fault order. Every fault is written and
	// its slot kept only for a hit: a branch on inter > 0 would be
	// mispredicted for about half of the faults.
	hits := slices.Grow(sc.hits[:0], nf)[:nf]
	n := 0
	for f, t := range tl {
		hits[n] = hit{int32(f), t.inter, t.both}
		n += int(uint32(-t.inter) >> 31) // 1 when inter > 0
	}
	hits = hits[:n]
	// The keys are sorted, not the candidates. Hits are in fault index
	// order and the radix sort is stable, so the hit index breaks score
	// ties as the fault index does.
	fv := slices.Grow(sc.fv[:0], n*NumFeatures)[:n*NumFeatures]
	scores := slices.Grow(sc.scores[:0], n)[:n]
	keys := slices.Grow(sc.keys[:0], n)[:n]
	tmp := slices.Grow(sc.tmp[:0], n)[:n]
	for k, h := range hits {
		s := &d.sums[h.fault]
		inter := int(h.inter)
		f := fv[k*NumFeatures : (k+1)*NumFeatures : (k+1)*NumFeatures]
		f[0] = float64(inter)
		f[1] = float64(s.size - inter)
		f[2] = float64(obsSize - inter)
		f[3] = float64(inter) / float64(s.size+obsSize-inter)
		f[4] = float64(s.size)
		f[5] = float64(obsSize)
		f[6] = float64(h.both) / float64(max(s.pos, len(obsPOs)))
		f[7] = s.coNorm
		scores[k] = scorer.Score(f)
		keys[k] = rankKey{scoreKey(scores[k]), int32(k)}
	}
	keys, tmp = radixSort(keys, tmp)
	cands := make([]Candidate, n)
	for j, key := range keys {
		k := key.hit
		f := hits[k].fault
		cands[j] = Candidate{Index: int(f), Fault: d.Faults[f], Score: scores[k]}
	}
	sc.obsPOs, sc.tally, sc.hits, sc.fv, sc.scores, sc.keys, sc.tmp = obsPOs, tl, hits, fv, scores, keys, tmp
	return cands
}

// tallyColumn adds one failing PO to the counts tl: for each fault f,
// popcount(row & orow) to inter and, when the row is nonzero, one to both.
// col is the PO's column of W-word rows, and only len(orow) words of a row
// are read. It is a function of its own so that its loops keep their
// values in registers.
func tallyColumn(tl []tally, col, orow []logic.Word, W int) {
	if len(orow) > W {
		panic(fmt.Sprintf("diagnosis: log row of %d words against dictionary rows of %d", len(orow), W))
	}
	if len(orow) == 1 {
		// Up to 64 patterns: without the word loop the ranking of
		// BenchmarkDiagnose ran about 8 % faster.
		ow := orow[0]
		for f := range tl {
			dw := col[f*W]
			t := &tl[f]
			t.inter += int32(logic.PopCount(dw & ow))
			t.both += int32((dw | -dw) >> 63) // 1 when the row is nonzero
		}
		return
	}
	for f := range tl {
		row := col[f*W : f*W+len(orow)]
		var inter int
		var nz logic.Word
		for w, dw := range row {
			inter += logic.PopCount(dw & orow[w])
			nz |= dw
		}
		t := &tl[f]
		t.inter += int32(inter)
		t.both += int32((nz | -nz) >> 63)
	}
}

// scoreKey maps a score to a key whose unsigned order is the ranking's:
// score descending by cmp.Compare, so −0 keys as +0 and every NaN takes
// the largest key, after −Inf.
func scoreKey(x float64) uint64 {
	switch {
	case x != x:
		return math.MaxUint64
	case x == 0:
		x = 0 // −0 ranks with +0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return b // negative: a larger magnitude ranks later
	}
	return ^b &^ (1 << 63) // positive: a larger value ranks earlier
}

// radixSort sorts a by key with a stable least-significant-digit radix
// sort, one pass per key byte, skipping each byte that every key shares.
// One read of a fills the histograms of all eight bytes. tmp must be as
// long as a. It returns the sorted slice and the other buffer, which may be
// a and tmp swapped.
func radixSort(a, tmp []rankKey) (sorted, other []rankKey) {
	and, or := ^uint64(0), uint64(0)
	var count [8][256]int32
	for _, k := range a {
		x := k.key
		and &= x
		or |= x
		count[0][byte(x)]++
		count[1][byte(x>>8)]++
		count[2][byte(x>>16)]++
		count[3][byte(x>>24)]++
		count[4][byte(x>>32)]++
		count[5][byte(x>>40)]++
		count[6][byte(x>>48)]++
		count[7][byte(x>>56)]++
	}
	for d := range count {
		shift := 8 * d
		if (and^or)>>shift&0xff == 0 {
			continue
		}
		c := &count[d]
		var sum int32
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, k := range a {
			b := byte(k.key >> shift)
			tmp[c[b]] = k
			c[b]++
		}
		a, tmp = tmp, a
	}
	return a, tmp
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
// in sample (indices into d.Faults), observing it with the given noise on
// its dictionary row, and emitting every surviving candidate, in rank
// order, as an example with its feature vector. rnd supplies determinism
// for the noise process.
func (d *Diagnoser) TrainingSet(sample []int, noise float64, rnd func() float64) []TrainingExample {
	sc := scratchPool.Get().(*rankScratch)
	defer scratchPool.Put(sc)
	var out []TrainingExample
	for _, fi := range sample {
		cands := d.rank(d.observe(fi, noise, rnd), nil, sc)
		// One block per log; each example's features are a capped
		// sub-slice, so an append cannot write into a neighbour.
		blk := make([]float64, len(cands)*NumFeatures)
		trueSig := d.Dict[fi]
		for j, c := range cands {
			k := int(sc.keys[j].hit)
			f := blk[j*NumFeatures : (j+1)*NumFeatures : (j+1)*NumFeatures]
			copy(f, sc.fv[k*NumFeatures:(k+1)*NumFeatures])
			label := 0.0
			if c.Index == fi || sameSignature(d.Dict[c.Index], trueSig) {
				label = 1.0
			}
			out = append(out, TrainingExample{Features: f, Label: label})
		}
	}
	return out
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

// Evaluate injects each fault index in cases (its failure log is its
// dictionary row with the given noise), diagnoses with the scorer and
// accumulates ranking accuracy.
func (d *Diagnoser) Evaluate(cases []int, noise float64, rnd func() float64, scorer Scorer) Accuracy {
	var acc Accuracy
	totalRank := 0
	for _, fi := range cases {
		cands := d.Diagnose(d.observe(fi, noise, rnd), scorer)
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
	return acc
}
