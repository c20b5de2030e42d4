package fault

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// explicitTransitionDetect checks pair (v1, v2) against fault tf by
// first-principles simulation, given the good values goodV1 and goodV2 of
// the pair (simulateGood): v1 must set the site to the pre-transition
// value, and under v2 the faulty circuit (site stuck at the old value)
// must differ from the good circuit at some output. idx is n.InputIndex().
func explicitTransitionDetect(n *circuit.Netlist, idx map[int]int, tf TransitionFault, goodV1, goodV2, v2 []bool) bool {
	init := false // required value of site under v1: 0 for STR, 1 for STF
	if !tf.SlowToRise {
		init = true
	}
	if goodV1[tf.Gate] != init {
		return false
	}
	sa := uint8(1)
	if tf.SlowToRise {
		sa = 0
	}
	faulty := simulateFaulty(n, idx, Fault{Gate: tf.Gate, Pin: -1, SA: sa}, v2)
	for o, po := range n.POs {
		if faulty[o] != goodV2[po] {
			return true
		}
	}
	return false
}

// simulateGood evaluates the fault-free netlist on one pattern and returns
// every gate's value. idx is n.InputIndex(), built once per netlist by the
// caller.
func simulateGood(n *circuit.Netlist, idx map[int]int, bits []bool) []bool {
	vals := make([]bool, len(n.Gates))
	for _, id := range n.TopoOrder() {
		g := n.Gates[id]
		if g.Type == circuit.Input || g.Type == circuit.DFF {
			vals[id] = bits[idx[id]]
			continue
		}
		in := make([]bool, len(g.Fanin))
		for p, f := range g.Fanin {
			in[p] = vals[f]
		}
		vals[id] = evalBool(g.Type, in)
	}
	return vals
}

func TestTransitionUniverse(t *testing.T) {
	n := circuit.MustC17()
	tfs := TransitionUniverse(n)
	if len(tfs) != 2*len(n.Gates) {
		t.Fatalf("universe = %d, want %d", len(tfs), 2*len(n.Gates))
	}
	if tfs[0].Name(n) == "" || tfs[0].String() == "" {
		t.Error("empty rendering")
	}
}

// TestTransitionSimAgainstExplicit is the correctness anchor: the
// simulator must agree with first-principles pair simulation on every fault
// and every pair, at every lane width and worker count. Besides c17, an
// adder and a random netlist, the circuits are the branch and
// region-boundary circuits of the drop grid (repeated fanin, POs that drive
// logic, scan cells, wide fanin, a DFF with fanin, gated parity), since a
// transition fault enters the walk through its region's stem. The random
// set spans five pattern words. Each edge set repeats one pattern except
// for its complement at pattern e, so only the pairs (e-1, e) and (e, e+1)
// can detect: the first crosses a word edge and, at e = 64·W, a W-block
// edge.
func TestTransitionSimAgainstExplicit(t *testing.T) {
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(3),
		circuit.Random(7, 50, 31),
		repeatedFaninCircuit(),
		poFanoutCircuit(),
		scanCircuit(),
		wideFaninCircuit(9),
		dffFaninCircuit(),
		circuit.GatedParity(8, 20, 6),
	} {
		rng := rand.New(rand.NewSource(5))
		random := logic.NewPatternSet(len(c.PIs), 320)
		random.RandFill(rng.Uint64)
		sets := []*logic.PatternSet{random}
		edges := []int{0, 64, 128, 256, 512} // per set; 0: no edge pair to pin
		for _, e := range edges[1:] {
			p := logic.NewPatternSet(len(c.PIs), e+40)
			fixed, flipped := make([]bool, len(c.PIs)), make([]bool, len(c.PIs))
			for i := range fixed {
				fixed[i] = rng.Intn(2) == 1
				flipped[i] = !fixed[i]
			}
			for k := 0; k < p.N; k++ {
				p.SetPattern(k, fixed)
			}
			p.SetPattern(e, flipped)
			sets = append(sets, p)
		}
		faults := TransitionUniverse(c)
		for si, p := range sets {
			want := explicitFirstPairs(c, p, faults)
			crossing := 0
			for _, k := range want {
				if e := edges[si]; e > 0 && k == e-1 {
					crossing++
				}
			}
			if edges[si] > 0 && crossing == 0 {
				t.Fatalf("%s N=%d: no fault first detected by the edge pair", c.Name, p.N)
			}
			checkTransitions(t, c, p, faults, want, laneWidths, []int{1, 3})
		}
	}
}

// explicitFirstPairs returns each fault's first pair (k, k+1) of p that
// explicitTransitionDetect says detects it, -1 if none. The good circuit
// is simulated once per pattern, and pairs with equal patterns have equal
// answers, so each distinct pair is checked once per fault: an edge set of
// one repeated pattern costs three checks.
func explicitFirstPairs(c *circuit.Netlist, p *logic.PatternSet, faults []TransitionFault) []int {
	idx := c.InputIndex()
	good, keys := make([][]bool, p.N), make([]string, p.N)
	for k := range good {
		v := p.Pattern(k)
		good[k] = simulateGood(c, idx, v)
		b := make([]byte, len(v))
		for i, x := range v {
			if x {
				b[i] = 1
			}
		}
		keys[k] = string(b)
	}
	want := make([]int, len(faults))
	for fi, tf := range faults {
		want[fi] = -1
		seen := map[string]bool{}
		for k := 0; k+1 < p.N && want[fi] < 0; k++ {
			pair := keys[k] + "|" + keys[k+1]
			det, ok := seen[pair]
			if !ok {
				det = explicitTransitionDetect(c, idx, tf, good[k], good[k+1], p.Pattern(k+1))
				seen[pair] = det
			}
			if det {
				want[fi] = k
			}
		}
	}
	return want
}

// checkTransitions requires SimulateTransitions at every given lane width
// and worker count to report want: every fault's first detecting pair and
// the count detected.
func checkTransitions(t *testing.T, c *circuit.Netlist, p *logic.PatternSet, faults []TransitionFault, want []int, widths, workers []int) {
	t.Helper()
	detected := 0
	for _, k := range want {
		if k >= 0 {
			detected++
		}
	}
	for _, words := range widths {
		for _, nw := range workers {
			res, err := SimulateTransitions(c, p, faults, Options{Workers: nw, Words: words})
			if err != nil {
				t.Fatal(err)
			}
			if res.Detected != detected {
				t.Fatalf("%s N=%d W=%d workers=%d: detected %d, explicit %d",
					c.Name, p.N, words, nw, res.Detected, detected)
			}
			for fi, tf := range faults {
				if res.DetectedBy[fi] != want[fi] {
					t.Fatalf("%s N=%d W=%d workers=%d fault %s: simulator pair %d, explicit %d",
						c.Name, p.N, words, nw, tf.Name(c), res.DetectedBy[fi], want[fi])
				}
			}
		}
	}
}

func TestTransitionNeedsTwoPatterns(t *testing.T) {
	n := circuit.MustC17()
	p := logic.NewPatternSet(len(n.PIs), 1)
	res, err := SimulateTransitions(n, p, TransitionUniverse(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != 0 {
		t.Error("single pattern cannot detect transition faults")
	}
}

func TestTransitionCoverageBelowStuckAt(t *testing.T) {
	// A transition fault needs strictly more than the corresponding
	// stuck-at detection (the extra initialization condition), so random
	// transition coverage can never exceed random stuck-at stem coverage.
	c := circuit.ArrayMultiplier(4)
	rng := rand.New(rand.NewSource(9))
	p := logic.NewPatternSet(len(c.PIs), 128)
	p.RandFill(rng.Uint64)
	tres, err := SimulateTransitions(c, p, TransitionUniverse(c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fsim, _ := NewSimulator(c)
	var stems []Fault
	for _, g := range c.Gates {
		stems = append(stems, Fault{Gate: g.ID, Pin: -1, SA: 0}, Fault{Gate: g.ID, Pin: -1, SA: 1})
	}
	sres := fsim.Run(p, stems)
	if tres.Coverage > sres.Coverage+1e-9 {
		t.Errorf("transition coverage %.3f exceeds stuck-at stem coverage %.3f",
			tres.Coverage, sres.Coverage)
	}
	if tres.Coverage < 0.5 {
		t.Errorf("transition coverage %.3f suspiciously low for mul4", tres.Coverage)
	}
}
