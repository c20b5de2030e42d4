package fault

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// TransitionFault is a gross-delay (transition) fault on a gate output:
// slow-to-rise (STR) or slow-to-fall (STF). Under the standard two-pattern
// model, a pair (v1, v2) detects an STR fault at line s iff
//
//  1. v1 sets s to 0 (initialization),
//  2. v2 sets s to 1 and propagates a stuck-at-0 effect at s to an output
//     (launch + capture).
//
// STF is the dual. Consecutive patterns of a test set form the pairs
// (launch-on-capture style for the full-scan combinational core).
type TransitionFault struct {
	Gate       int
	SlowToRise bool
}

// String renders the fault in conventional notation.
func (f TransitionFault) String() string {
	kind := "STF"
	if f.SlowToRise {
		kind = "STR"
	}
	return fmt.Sprintf("g%d/%s", f.Gate, kind)
}

// Name renders the fault with netlist signal names.
func (f TransitionFault) Name(n *circuit.Netlist) string {
	kind := "STF"
	if f.SlowToRise {
		kind = "STR"
	}
	return fmt.Sprintf("%s/%s", n.Gates[f.Gate].Name, kind)
}

// TransitionUniverse enumerates both transition faults on every gate
// output (including primary inputs, whose transitions exercise input
// paths).
func TransitionUniverse(n *circuit.Netlist) []TransitionFault {
	out := make([]TransitionFault, 0, 2*len(n.Gates))
	for _, g := range n.Gates {
		out = append(out,
			TransitionFault{Gate: g.ID, SlowToRise: true},
			TransitionFault{Gate: g.ID, SlowToRise: false},
		)
	}
	return out
}

// TransitionResult reports two-pattern fault simulation.
type TransitionResult struct {
	Total      int
	Detected   int
	DetectedBy []int // per fault: index k of the first detecting pair (k, k+1); -1 if undetected
	Coverage   float64
}

// SimulateTransitionsWords runs two-pattern transition-fault simulation
// over all consecutive pattern pairs of the set. It composes the existing
// engines: good-value simulation supplies the initialization condition, and
// the stuck-at dictionary (built block-sharded across workers with
// words-wide simulators; bit-identical for any count and width, <= 0
// workers selects GOMAXPROCS) supplies launch/propagation, so the result
// provably matches the two-pattern definition above.
func SimulateTransitionsWords(n *circuit.Netlist, p *logic.PatternSet, faults []TransitionFault, workers, words int) (*TransitionResult, error) {
	if p.N < 2 {
		return &TransitionResult{Total: len(faults), DetectedBy: fillNeg(len(faults))}, nil
	}
	// Compile once; the good-value simulator here and the word-sharded
	// dictionary workers below all read the same immutable IR.
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	gsim := sim.NewWideCompiled(c, 1)
	// Good value of every gate for every pattern, bit-sliced.
	nWords := p.Words()
	vals := make([][]logic.Word, len(n.Gates))
	for g := range vals {
		vals[g] = make([]logic.Word, nWords)
	}
	pi := make([]logic.Word, len(n.PIs))
	for w := 0; w < nWords; w++ {
		for i := range pi {
			pi[i] = p.Bits[i][w]
		}
		block := gsim.BlockRange(pi, 0, 1)
		mask := p.TailMask(w)
		for g := range vals {
			vals[g][w] = block[c.Tpos[g]] & mask
		}
	}
	getVal := func(gate, k int) bool {
		return vals[gate][k/logic.WordBits]>>(uint(k)%logic.WordBits)&1 == 1
	}

	// Stuck-at stem dictionary for the gates that carry transition faults,
	// in deterministic gate order.
	needGate := map[int]bool{}
	for _, tf := range faults {
		needGate[tf.Gate] = true
	}
	gates := make([]int, 0, len(needGate))
	for g := range needGate {
		gates = append(gates, g)
	}
	sort.Ints(gates)
	var stuck []Fault
	stuckIdx := map[Fault]int{}
	for _, g := range gates {
		for _, sa := range []uint8{0, 1} {
			f := Fault{Gate: g, Pin: -1, SA: sa}
			stuckIdx[f] = len(stuck)
			stuck = append(stuck, f)
		}
	}
	dict, err := DictionaryConcurrentWords(n, p, stuck, workers, words)
	if err != nil {
		return nil, err
	}
	stuckDetected := func(gate int, sa uint8, k int) bool {
		sg := dict[stuckIdx[Fault{Gate: gate, Pin: -1, SA: sa}]]
		w, b := k/logic.WordBits, uint(k%logic.WordBits)
		for o := range sg.Bits {
			if sg.Bits[o][w]>>b&1 == 1 {
				return true
			}
		}
		return false
	}

	res := &TransitionResult{Total: len(faults), DetectedBy: fillNeg(len(faults))}
	for fi, tf := range faults {
		for k := 0; k+1 < p.N; k++ {
			v1 := getVal(tf.Gate, k)
			if v1 == tf.SlowToRise {
				continue // initialization not satisfied (STR needs v1=0)
			}
			// Launch/capture: the slow line behaves stuck at its old value.
			sa := uint8(1)
			if tf.SlowToRise {
				sa = 0
			}
			if stuckDetected(tf.Gate, sa, k+1) {
				res.DetectedBy[fi] = k
				res.Detected++
				break
			}
		}
	}
	if res.Total > 0 {
		res.Coverage = float64(res.Detected) / float64(res.Total)
	}
	return res, nil
}

func fillNeg(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	return out
}
