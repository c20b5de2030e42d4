package fault

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// explicitTransitionDetect checks pair (v1, v2) against fault tf by
// first-principles simulation: v1 must set the site to the pre-transition
// value, and under v2 the faulty circuit (site stuck at the old value)
// must differ from the good circuit at some output.
func explicitTransitionDetect(n *circuit.Netlist, tf TransitionFault, v1, v2 []bool) bool {
	goodV1 := simulateGood(n, v1)
	init := false // required value of site under v1: 0 for STR, 1 for STF
	if !tf.SlowToRise {
		init = true
	}
	if goodV1[tf.Gate] != init {
		return false
	}
	goodV2 := simulateGood(n, v2)
	sa := uint8(1)
	if tf.SlowToRise {
		sa = 0
	}
	faulty := simulateFaulty(n, Fault{Gate: tf.Gate, Pin: -1, SA: sa}, v2)
	for o, po := range n.POs {
		if faulty[o] != goodV2[po] {
			return true
		}
	}
	return false
}

func simulateGood(n *circuit.Netlist, bits []bool) []bool {
	idx := n.InputIndex()
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

// TestTransitionSimAgainstExplicit is the correctness anchor: the composed
// simulator must agree with first-principles pair simulation on every
// fault and every pair.
func TestTransitionSimAgainstExplicit(t *testing.T) {
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(3),
		circuit.Random(7, 50, 31),
	} {
		rng := rand.New(rand.NewSource(5))
		p := logic.NewPatternSet(len(c.PIs), 40)
		p.RandFill(rng.Uint64)
		faults := TransitionUniverse(c)
		res, err := SimulateTransitionsWords(c, p, faults, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for fi, tf := range faults {
			// First detecting pair by explicit simulation.
			first := -1
			for k := 0; k+1 < p.N && first < 0; k++ {
				if explicitTransitionDetect(c, tf, p.Pattern(k), p.Pattern(k+1)) {
					first = k
				}
			}
			if res.DetectedBy[fi] != first {
				t.Fatalf("%s fault %s: simulator pair %d, explicit %d",
					c.Name, tf.Name(c), res.DetectedBy[fi], first)
			}
		}
	}
}

func TestTransitionNeedsTwoPatterns(t *testing.T) {
	n := circuit.MustC17()
	p := logic.NewPatternSet(len(n.PIs), 1)
	res, err := SimulateTransitionsWords(n, p, TransitionUniverse(n), 0, 1)
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
	tres, err := SimulateTransitionsWords(c, p, TransitionUniverse(c), 0, 1)
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
