package fault

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/logic"
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

// SimulateTransitions runs two-pattern transition-fault simulation over
// all consecutive pattern pairs of the set on the stuck-at engine. Faults
// shard over o.Workers as in RunConcurrent; each shard walks o.Lanes()-word
// pattern blocks. Per block it simulates the good circuit once and drops
// each live fault's slow-value stuck-at fault with one stem walk, as Probe
// does. Pair (k, k+1) detects when that walk reaches an output at pattern
// k+1 and the good site value at pattern k is the pre-transition value, so
// the result matches the two-pattern definition above and is bit-identical
// for any worker count and width.
func SimulateTransitions(n *circuit.Netlist, p *logic.PatternSet, faults []TransitionFault, o Options) (*TransitionResult, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	res := &TransitionResult{Total: len(faults), DetectedBy: make([]int, len(faults))}
	res.Detected = shardFaults(o.Workers, len(faults), func(lo, hi int) int {
		return newSimulator(c, o.Lanes()).transitions(p, faults[lo:hi], res.DetectedBy[lo:hi])
	})
	if res.Total > 0 {
		res.Coverage = float64(res.Detected) / float64(res.Total)
	}
	return res, nil
}

// transitions is the shard body of SimulateTransitions: detBy receives
// each fault's first detecting pair (-1 if none); it returns the number of
// detected faults. A pair's capture bit is the stuck-at difference at
// pattern k+1 masked by the site's initialization at pattern k: the site's
// good lanes (inverted for STR) shifted up one bit, with the top bit of the
// previous lane carried across lane and block edges. The mask goes into
// the fault's reach, so the stem walk flips, and detects, only initialized
// captures.
func (s *Simulator) transitions(p *logic.PatternSet, faults []TransitionFault, detBy []int) int {
	s.stagedAct, s.goodAct = 0, 0
	W, words := s.w, p.Words()
	carry := make([]logic.Word, len(faults)) // per fault: start word of the last lane seen
	live := make([]int, len(faults))
	for i := range live {
		live[i], detBy[i] = i, -1
	}
	detected := 0
	var masks, d [MaxWords]logic.Word
	for base := 0; base < words && len(live) > 0; base += W {
		act := min(W, words-base)
		s.simulateGood(p, base, 0, act, min(W, words))
		S, vals := s.stride, s.vals
		kept := live[:0]
		for _, fi := range live {
			// The slow line keeps its pre-transition value: 0 for STR, 1 for STF.
			f := Fault{Gate: faults[fi].Gate, Pin: -1, SA: 1}
			var flip logic.Word
			if faults[fi].SlowToRise {
				f.SA, flip = 0, ^logic.Word(0)
			}
			site := int(s.c.Tpos[f.Gate]) * S
			for l := 0; l < act; l++ {
				start := vals[site+l] ^ flip // patterns that hold the pre-transition value
				masks[l] = p.TailMask(base+l) & (start<<1 | carry[fi]>>63)
				carry[fi] = start
			}
			s.dropOne(f, 0, act, masks[:act], d[:act])
			det := -1
			for l := 0; l < act && det < 0; l++ {
				if d[l] != 0 {
					det = (base+l)*logic.WordBits + bits.TrailingZeros64(d[l]) - 1
				}
			}
			if det >= 0 {
				detBy[fi] = det
				detected++
			} else {
				kept = append(kept, fi)
			}
		}
		live = kept
	}
	return detected
}
