package diagnosis

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

func testPatterns(t testing.TB, n *circuit.Netlist) *logic.PatternSet {
	t.Helper()
	res, err := atpg.Run(n, atpg.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res.Patterns
}

// randomPatterns is a seeded random set of n patterns for the netlist.
func randomPatterns(nl *circuit.Netlist, n int, seed int64) *logic.PatternSet {
	p := logic.NewPatternSet(len(nl.PIs), n)
	p.RandFill(rand.New(rand.NewSource(seed)).Uint64)
	return p
}

// loadBench parses the named .bench anchor under testdata/bench at the
// repository root.
func loadBench(t testing.TB, name string) *circuit.Netlist {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "bench", name+".bench"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := circuit.ParseBench(f, name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// detectable returns up to limit detectable fault indices of d, spread
// evenly over the fault list.
func detectable(d *Diagnoser, limit int) []int {
	var all []int
	for fi := range d.Faults {
		if d.Dict[fi].FailBits() > 0 {
			all = append(all, fi)
		}
	}
	if len(all) <= limit {
		return all
	}
	out := make([]int, limit)
	for k := range out {
		out[k] = all[k*len(all)/limit]
	}
	return out
}

// TestNoiselessDiagnosisTop1: a fault diagnosed from its own noiseless
// failure log (a fresh single-fault simulation) ranks first, or behind
// faults with the same signature, for every worker count and lane width
// the dictionary is built at.
func TestNoiselessDiagnosisTop1(t *testing.T) {
	mul4 := circuit.ArrayMultiplier(4)
	rca := loadBench(t, "rca16")
	rnd := circuit.Random(12, 150, 3)
	cases := []struct {
		n *circuit.Netlist
		p *logic.PatternSet
	}{
		{circuit.MustC17(), logic.Exhaustive(5)},
		{rca, randomPatterns(rca, 150, 21)},
		{mul4, testPatterns(t, mul4)},
		{rnd, randomPatterns(rnd, 200, 23)},
	}
	for _, c := range cases {
		var faults []int
		var logs []*Observation
		for fi, f := range fault.Universe(c.n) {
			obs, err := Observe(c.n, c.p, f, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if (&fault.Signature{Bits: obs.Bits}).FailBits() > 0 {
				faults, logs = append(faults, fi), append(logs, obs)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			for _, words := range []int{1, 8} {
				d, err := New(c.n, c.p, fault.Options{Workers: workers, Words: words})
				if err != nil {
					t.Fatal(err)
				}
				for k, fi := range faults {
					if r := d.HitRank(d.Diagnose(logs[k], nil), fi); r != 1 {
						t.Errorf("%s workers %d words %d: fault %s ranks %d, want 1",
							c.n.Name, workers, words, d.Faults[fi].Name(c.n), r)
					}
				}
			}
		}
	}
}

func TestDiagnosisWithNoise(t *testing.T) {
	n := circuit.RippleAdder(6)
	p := testPatterns(t, n)
	d, err := New(n, p, fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	cases := []int{}
	for fi := range d.Faults {
		if d.Dict[fi].FailBits() > 2 {
			cases = append(cases, fi)
		}
		if len(cases) == 40 {
			break
		}
	}
	acc := d.Evaluate(cases, 0.1, rng.Float64, nil)
	if acc.Top5Rate() < 0.6 {
		t.Errorf("noisy top-5 rate = %.2f, expected >= 0.6", acc.Top5Rate())
	}
	if acc.Cases != len(cases) {
		t.Errorf("cases = %d, want %d", acc.Cases, len(cases))
	}
}

func TestCandidatesSortedAndPruned(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, _ := New(n, p, fault.Options{})
	rng := rand.New(rand.NewSource(3))
	obs, _ := Observe(n, p, d.Faults[0], 0, rng.Float64)
	cands := d.Diagnose(obs, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates not sorted by score")
		}
	}
	c, _ := n.Compiled()
	scoap := circuit.ComputeSCOAPCompiled(c)
	for _, cand := range cands {
		if featureVector(c, scoap, d.Dict[cand.Index], obs, cand.Fault)[0] == 0 {
			t.Fatal("pruning failed: candidate with zero intersection")
		}
	}
}

func TestFeatureVectorShape(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, _ := New(n, p, fault.Options{})
	for _, ex := range d.TrainingSet([]int{2}, 0, nil) {
		if len(ex.Features) != NumFeatures {
			t.Fatalf("feature vector length %d, want %d", len(ex.Features), NumFeatures)
		}
		if ex.Features[3] < 0 || ex.Features[3] > 1 {
			t.Fatalf("jaccard out of range: %f", ex.Features[3])
		}
	}
}

// TestSelfSignatureJaccardIsOne reads the features of a fault's own
// candidate from TrainingSet, whose examples follow Diagnose's rank order.
func TestSelfSignatureJaccardIsOne(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, _ := New(n, p, fault.Options{})
	rng := rand.New(rand.NewSource(5))
	for fi := 0; fi < len(d.Faults); fi += 3 {
		if d.Dict[fi].FailBits() == 0 {
			continue
		}
		obs, _ := Observe(n, p, d.Faults[fi], 0, rng.Float64)
		examples := d.TrainingSet([]int{fi}, 0, nil)
		var fv []float64
		for j, c := range d.Diagnose(obs, nil) {
			if c.Index == fi {
				fv = examples[j].Features
			}
		}
		if fv == nil {
			t.Fatalf("fault %d: not a candidate for its own log", fi)
		}
		if fv[3] != 1.0 {
			t.Errorf("fault %d: self jaccard = %f", fi, fv[3])
		}
		if fv[1] != 0 || fv[2] != 0 {
			t.Errorf("fault %d: self mismatches (%f,%f)", fi, fv[1], fv[2])
		}
	}
}

func TestTrainingSetLabels(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, _ := New(n, p, fault.Options{})
	rng := rand.New(rand.NewSource(6))
	sample := []int{0, 1, 2, 3}
	ts := d.TrainingSet(sample, 0, rng.Float64)
	if len(ts) == 0 {
		t.Fatal("empty training set")
	}
	pos := 0
	for _, ex := range ts {
		if ex.Label == 1 {
			pos++
		}
		if len(ex.Features) != NumFeatures {
			t.Fatal("bad feature length in training set")
		}
	}
	if pos < len(sample) {
		t.Errorf("positive examples = %d, want >= %d", pos, len(sample))
	}
}

func TestObserveNoiseReducesFails(t *testing.T) {
	n := circuit.RippleAdder(4)
	p := testPatterns(t, n)
	d, _ := New(n, p, fault.Options{})
	var fi int
	for i := range d.Faults {
		if d.Dict[i].FailBits() > 10 {
			fi = i
			break
		}
	}
	rng := rand.New(rand.NewSource(7))
	clean, _ := Observe(n, p, d.Faults[fi], 0, rng.Float64)
	noisy, _ := Observe(n, p, d.Faults[fi], 0.5, rng.Float64)
	cnt := func(o *Observation) int {
		c := 0
		for _, ws := range o.Bits {
			for _, w := range ws {
				c += logic.PopCount(w)
			}
		}
		return c
	}
	if cnt(noisy) >= cnt(clean) {
		t.Errorf("noise did not reduce failing bits: %d vs %d", cnt(noisy), cnt(clean))
	}
}

func TestEquivalentFaultCountsAsHit(t *testing.T) {
	// Two faults with identical signatures: diagnosis cannot distinguish
	// them, so rank must treat either as a hit.
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, _ := New(n, p, fault.Options{})
	// find two distinct faults with identical signatures, if any
	for i := range d.Faults {
		for j := i + 1; j < len(d.Faults); j++ {
			if d.Dict[i].FailBits() > 0 && sameSignature(d.Dict[i], d.Dict[j]) {
				rng := rand.New(rand.NewSource(8))
				obs, _ := Observe(n, p, d.Faults[i], 0, rng.Float64)
				cands := d.Diagnose(obs, nil)
				if r := d.HitRank(cands, j); r == 0 || r > 2 {
					t.Errorf("equivalent fault rank = %d", r)
				}
				return
			}
		}
	}
	t.Skip("no equivalent fault pair in collapsed universe")
}

var benchCands []Candidate

// benchLogs returns 40 failure logs of random detectable faults of d with
// 10 % of their failing bits missed, the lot of the perfbench diagnose
// workload.
func benchLogs(d *Diagnoser) []*Observation {
	rng := rand.New(rand.NewSource(1))
	var logs []*Observation
	for len(logs) < 40 {
		obs := d.observe(rng.Intn(len(d.Faults)), 0.1, rng.Float64)
		if (&fault.Signature{Bits: obs.Bits}).FailBits() > 0 {
			logs = append(logs, obs)
		}
	}
	return logs
}

// BenchmarkDiagnose ranks 40 failure logs per op at the shape of the
// perfbench diagnose workload: the 8-bit array multiplier, its ATPG test
// set (seed 1), a dictionary built at fault.MaxWords, and benchLogs.
func BenchmarkDiagnose(b *testing.B) {
	n := circuit.ArrayMultiplier(8)
	d, err := New(n, testPatterns(b, n), fault.Options{Workers: 1, Words: fault.MaxWords})
	if err != nil {
		b.Fatal(err)
	}
	logs := benchLogs(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, obs := range logs {
			benchCands = d.Diagnose(obs, nil)
		}
	}
}

// BenchmarkDiagnoseLot is the whole perfbench diagnose op: it builds the
// dictionary of BenchmarkDiagnose with New and ranks the 40 logs against
// it. build_us and rank_us split the op's time between the two.
func BenchmarkDiagnoseLot(b *testing.B) {
	n := circuit.ArrayMultiplier(8)
	p := testPatterns(b, n)
	o := fault.Options{Workers: 1, Words: fault.MaxWords}
	d, err := New(n, p, o)
	if err != nil {
		b.Fatal(err)
	}
	logs := benchLogs(d)
	var build, rank time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		d, err := New(n, p, o)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		for _, obs := range logs {
			benchCands = d.Diagnose(obs, nil)
		}
		build += t1.Sub(t0)
		rank += time.Since(t1)
	}
	b.ReportMetric(float64(build.Microseconds())/float64(b.N), "build_us")
	b.ReportMetric(float64(rank.Microseconds())/float64(b.N), "rank_us")
}

// evaluateRef is the reference for Evaluate: each case's failure log comes
// from Observe, a fresh single-fault simulation, not from the dictionary.
func evaluateRef(t *testing.T, d *Diagnoser, p *logic.PatternSet, cases []int, noise float64, rnd func() float64, scorer Scorer) Accuracy {
	var acc Accuracy
	totalRank := 0
	for _, fi := range cases {
		obs, err := Observe(d.Net, p, d.Faults[fi], noise, rnd)
		if err != nil {
			t.Fatal(err)
		}
		r := d.HitRank(d.Diagnose(obs, scorer), fi)
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

// trainingSetRef is the reference for TrainingSet: each log comes from
// Observe, and each candidate's features from featureVector.
func trainingSetRef(t *testing.T, d *Diagnoser, p *logic.PatternSet, sample []int, noise float64, rnd func() float64) []TrainingExample {
	c, err := d.Net.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	scoap := circuit.ComputeSCOAPCompiled(c)
	var out []TrainingExample
	for _, fi := range sample {
		obs, err := Observe(d.Net, p, d.Faults[fi], noise, rnd)
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range d.Diagnose(obs, nil) {
			label := 0.0
			if cand.Index == fi || sameSignature(d.Dict[cand.Index], d.Dict[fi]) {
				label = 1
			}
			fv := featureVector(c, scoap, d.Dict[cand.Index], obs, cand.Fault)
			out = append(out, TrainingExample{Features: fv, Label: label})
		}
	}
	return out
}

// TestEvaluateAndTrainingSetMatchObserve pins the dictionary-row failure
// logs to Observe: same accuracy and same examples, noise draws included,
// on a multi-word set against a dictionary built at another lane width.
func TestEvaluateAndTrainingSetMatchObserve(t *testing.T) {
	n := circuit.RippleAdder(6)
	p := logic.NewPatternSet(len(n.PIs), 150)
	p.RandFill(rand.New(rand.NewSource(11)).Uint64)
	d, err := New(n, p, fault.Options{Workers: 2, Words: 4})
	if err != nil {
		t.Fatal(err)
	}
	var cases []int
	for fi := range d.Faults {
		if d.Dict[fi].FailBits() > 0 && len(cases) < 30 {
			cases = append(cases, fi)
		}
	}
	for _, noise := range []float64{0, 0.2} {
		got := d.Evaluate(cases, noise, rand.New(rand.NewSource(12)).Float64, nil)
		if want := evaluateRef(t, d, p, cases, noise, rand.New(rand.NewSource(12)).Float64, nil); got != want {
			t.Errorf("noise %.1f: Evaluate %+v, reference %+v", noise, got, want)
		}
		gotTS := d.TrainingSet(cases, noise, rand.New(rand.NewSource(13)).Float64)
		wantTS := trainingSetRef(t, d, p, cases, noise, rand.New(rand.NewSource(13)).Float64)
		if !reflect.DeepEqual(gotTS, wantTS) {
			t.Errorf("noise %.1f: TrainingSet differs from the reference (%d vs %d examples)", noise, len(gotTS), len(wantTS))
		}
	}
}

// TestDiagnoseAllZeroObservation: a log with no failure shares a failure
// with no signature, so every candidate is pruned (T5 counts it NoCand).
func TestDiagnoseAllZeroObservation(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, err := New(n, p, fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	obs := &Observation{Bits: make([][]logic.Word, len(n.POs))}
	for o := range obs.Bits {
		obs.Bits[o] = make([]logic.Word, p.Words())
	}
	if cands := d.Diagnose(obs, nil); len(cands) != 0 {
		t.Errorf("all-zero observation: %d candidates, want none", len(cands))
	}
}

// featureVector is the reference for the features Diagnose computes and
// TrainingSet returns: it reads every word of every PO of the signature.
func featureVector(c *circuit.Compiled, scoap *circuit.SCOAP, sig *fault.Signature, obs *Observation, f fault.Fault) []float64 {
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
	if m := max(dictPOs, obsPOs); m > 0 {
		poOverlap = float64(bothPOs) / float64(m)
	}
	co := float64(scoap.CO[c.Tpos[f.Gate]])
	coNorm := co / (co + 10)
	return []float64{
		float64(inter), float64(onlyDict), float64(onlyObs), jacc,
		float64(inter + onlyDict), float64(inter + onlyObs),
		poOverlap, coNorm,
	}
}

// diagnoseRef is the reference ranking: featureVector for every fault, the
// prune on no shared failure, then a stable sort by score descending under
// cmp.Compare (so NaN last and −0 equal to +0) and then index.
func diagnoseRef(d *Diagnoser, obs *Observation, scorer Scorer) []Candidate {
	if scorer == nil {
		scorer = JaccardScorer{}
	}
	c, err := d.Net.Compiled()
	if err != nil {
		panic(err)
	}
	scoap := circuit.ComputeSCOAPCompiled(c)
	cands := make([]Candidate, 0, len(d.Faults))
	for i, f := range d.Faults {
		fv := featureVector(c, scoap, d.Dict[i], obs, f)
		if fv[0] == 0 {
			continue
		}
		cands = append(cands, Candidate{Index: i, Fault: f, Score: scorer.Score(fv)})
	}
	slices.SortStableFunc(cands, func(a, b Candidate) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return cands
}

// sameCandidates reports whether two rankings list the same faults with
// bit-identical scores, so NaN scores compare equal to themselves.
func sameCandidates(a, b []Candidate) bool {
	return slices.EqualFunc(a, b, func(x, y Candidate) bool {
		return x.Index == y.Index && x.Fault == y.Fault && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// tieScorer scores by quartile of Jaccard similarity, so most candidates
// tie and their order is the index tie-break.
type tieScorer struct{}

func (tieScorer) Score(f []float64) float64 { return math.Floor(f[3] * 4) }

// oddScorer returns the scores an order must get right beyond finite
// values: NaN, ±0, ±Inf and subnormals, each shared by many candidates,
// chosen by the matched failure count.
type oddScorer struct{}

var oddScores = []float64{
	math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, 1, -1,
}

func (oddScorer) Score(f []float64) float64 { return oddScores[int(f[0])%len(oddScores)] }

// TestDiagnoseMatchesReference compares Diagnose with diagnoseRef on
// noiseless and noisy logs and an all-zero log, over dictionaries built at
// one and eight pattern words, with the Jaccard scorer, a tie-heavy one and
// one of NaN, signed-zero, infinite and subnormal scores.
func TestDiagnoseMatchesReference(t *testing.T) {
	mul8 := circuit.ArrayMultiplier(8)
	rca := loadBench(t, "rca16")
	rnd := circuit.Random(14, 200, 5)
	cases := []struct {
		n *circuit.Netlist
		p *logic.PatternSet
	}{
		{circuit.MustC17(), logic.Exhaustive(5)},
		{rca, randomPatterns(rca, 150, 21)},
		{mul8, testPatterns(t, mul8)},
		{rnd, randomPatterns(rnd, 200, 22)},
	}
	for _, c := range cases {
		for _, words := range []int{1, 8} {
			d, err := New(c.n, c.p, fault.Options{Words: words})
			if err != nil {
				t.Fatal(err)
			}
			zero := &Observation{Bits: make([][]logic.Word, len(c.n.POs))}
			for o := range zero.Bits {
				zero.Bits[o] = make([]logic.Word, c.p.Words())
			}
			logs := []*Observation{zero}
			rng := rand.New(rand.NewSource(31))
			for _, noise := range []float64{0, 0.1, 0.3} {
				for _, fi := range detectable(d, 12) {
					logs = append(logs, d.observe(fi, noise, rng.Float64))
				}
			}
			for _, scorer := range []Scorer{JaccardScorer{}, tieScorer{}, oddScorer{}} {
				for k, obs := range logs {
					got, want := d.Diagnose(obs, scorer), diagnoseRef(d, obs, scorer)
					if !sameCandidates(got, want) {
						t.Errorf("%s words %d %T log %d: %d candidates differ from the reference's %d",
							c.n.Name, words, scorer, k, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestScoreKeyOrder checks scoreKey against cmp.Compare on every pair of
// the adversarial scores and a few ordinary ones.
func TestScoreKeyOrder(t *testing.T) {
	xs := append([]float64{0.5, -0.5, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.Float64frombits(0x7ff8000000000001)}, oddScores...)
	for _, a := range xs {
		for _, b := range xs {
			want := cmp.Compare(b, a) // descending
			ka, kb := scoreKey(a), scoreKey(b)
			if got := cmp.Compare(ka, kb); got != want {
				t.Errorf("scores %v, %v: key order %d, cmp.Compare order %d", a, b, got, want)
			}
		}
	}
}

// TestTrainingSetFeaturesCapped: each log's examples share one feature
// block, so an append to one example's features must not write into the
// next example's.
func TestTrainingSetFeaturesCapped(t *testing.T) {
	n := circuit.MustC17()
	p := logic.Exhaustive(5)
	d, err := New(n, p, fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sample := detectable(d, 1)
	examples, want := d.TrainingSet(sample, 0, nil), trainingSetRef(t, d, p, sample, 0, nil)
	for i := range examples {
		_ = append(examples[i].Features, -1)
	}
	if !reflect.DeepEqual(examples, want) {
		t.Error("appending to an example's features changed another example")
	}
}

// TestDiagnoseConcurrentReaders: Diagnose from several goroutines on one
// Diagnoser returns what serial calls return.
func TestDiagnoseConcurrentReaders(t *testing.T) {
	n := loadBench(t, "rca16")
	d, err := New(n, randomPatterns(n, 150, 41), fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var logs []*Observation
	for _, fi := range detectable(d, 16) {
		logs = append(logs, d.observe(fi, 0.1, rng.Float64))
	}
	want := make([][]Candidate, len(logs))
	for k, obs := range logs {
		want[k] = d.Diagnose(obs, nil)
	}
	const readers = 4
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range logs {
				k := (k + g*len(logs)/readers) % len(logs)
				if got := d.Diagnose(logs[k], nil); !reflect.DeepEqual(got, want[k]) {
					errs[g] = fmt.Errorf("reader %d, log %d: result differs from the serial call", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestDiagnoseAllocatesOnlyCandidates: with the pooled scratch warm, a
// Diagnose call allocates one object, the candidate slice it returns, on a
// one-word and a three-word dictionary.
func TestDiagnoseAllocatesOnlyCandidates(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race sync.Pool drops scratch at random")
	}
	rca := loadBench(t, "rca16")
	for _, c := range []struct {
		n *circuit.Netlist
		p *logic.PatternSet
	}{
		{circuit.MustC17(), logic.Exhaustive(5)},
		{rca, randomPatterns(rca, 150, 21)},
	} {
		d, err := New(c.n, c.p, fault.Options{})
		if err != nil {
			t.Fatal(err)
		}
		obs := d.observe(detectable(d, 1)[0], 0, nil)
		if len(d.Diagnose(obs, nil)) == 0 {
			t.Fatalf("%s: the log has no candidates", c.n.Name)
		}
		if a := testing.AllocsPerRun(100, func() { benchCands = d.Diagnose(obs, nil) }); a != 1 {
			t.Errorf("%s: Diagnose allocates %v objects, want 1", c.n.Name, a)
		}
	}
}
