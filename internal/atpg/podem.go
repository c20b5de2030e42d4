// Package atpg implements automatic test pattern generation for single
// stuck-at faults: the PODEM algorithm (Goel 1981) over five-valued
// D-algebra with SCOAP-guided backtrace, plus a complete test-generation
// flow (random-pattern phase, deterministic top-up, reverse-order static
// compaction).
package atpg

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// Status classifies the outcome of deterministic test generation for one
// fault.
type Status int

// Test generation outcomes.
const (
	Detected  Status = iota // a test was found
	Redundant               // search space exhausted: the fault is untestable
	Aborted                 // backtrack limit hit before a conclusion
)

func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Guide selects the backtrace heuristic.
type Guide int

// Backtrace heuristics (ablation knob for experiment T4).
const (
	GuideSCOAP Guide = iota // controllability/observability guided (default)
	GuideNaive              // first-X-input, used as the ablation baseline
)

// Engine generates tests for stuck-at faults on one netlist using PODEM.
// All graph structure comes from the position-indexed tables of the shared
// immutable circuit.Compiled IR, and the engine keeps its five-valued value
// array and search state by topological position too. A PI's index is its
// position (positions [0, NumPIs) are the PIs in order), and the fault's
// gate ID is translated once per Generate.
type Engine struct {
	Net           *circuit.Netlist
	Scoap         *circuit.SCOAP
	Guide         Guide
	BacktrackLim  int // decisions un-done before aborting a fault (default 10000)
	c             *circuit.Compiled
	vals          []logic.V // by position
	Backtracks    int64     // cumulative statistics
	Implications  int64
	faultPos      int // position of the faulted gate
	faultPin      int
	faultSA       uint8
	decisionStack []decision
	visit         []int64 // epoch stamps for xPathExists, by position
	epoch         int64
	stackBuf      []int32
	front         []uint64 // implyPI frontier bitmap over topological positions
	// piVals is the search's PI assignment, all-X between Generate calls;
	// cube is the test cube Generate returns, overwritten by the next call.
	piVals []logic.V
	cube   []logic.V

	// Incremental search state, maintained by evalGate so the per-decision
	// O(gates) scans of the textbook loop disappear: dCount is the number of
	// POs currently carrying a fault effect (detected() is a comparison);
	// dfList/dfPos hold the current D-frontier as an unordered set of
	// positions with swap-delete membership (dfPos by position). Between
	// Generate calls the value array rests at the all-X fixpoint (empty
	// frontier, zero dCount), which also makes the per-fault full-circuit
	// baseline implication unnecessary: the all-X network looks identical
	// under every fault injection.
	dCount int
	dfList []int32
	dfPos  []int32
}

type decision struct {
	pi      int // PI index, which is also its position
	val     logic.V
	flipped bool
}

// New builds a PODEM engine. The netlist must compile; the compiled IR is
// cached on the netlist and shared with the fault simulator and every other
// engine bound to it.
func New(n *circuit.Netlist) (*Engine, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, fmt.Errorf("atpg: %w", err)
	}
	return NewShared(c, circuit.ComputeSCOAPCompiled(c)), nil
}

// NewShared builds a PODEM engine over an already-compiled IR and an
// already-computed SCOAP table, allocating only the engine's private search
// state. Both inputs are immutable after construction, so any number of
// engines — across concurrent flows on one netlist — may share them, and
// each costs O(gates), not a recompile or a SCOAP pass.
func NewShared(c *circuit.Compiled, scoap *circuit.SCOAP) *Engine {
	e := &Engine{
		Net:          c.Net,
		Scoap:        scoap,
		BacktrackLim: 10000,
		c:            c,
		vals:         make([]logic.V, c.NumGates()),
		visit:        make([]int64, c.NumGates()),
		front:        make([]uint64, (c.NumGates()+63)/64),
		dfPos:        make([]int32, c.NumGates()),
		piVals:       make([]logic.V, c.NumPIs()),
		cube:         make([]logic.V, c.NumPIs()),
	}
	for i := range e.piVals {
		e.piVals[i] = logic.VX
	}
	for i := range e.vals {
		e.vals[i] = logic.VX // the resting all-X fixpoint Generate relies on
	}
	for i := range e.dfPos {
		e.dfPos[i] = -1
	}
	return e
}

// implyPI incrementally re-implies after a single assignment change of PI
// i, at position i. Only gates an actual value change reaches are
// re-evaluated: the walk is event-driven over a self-clearing frontier
// bitmap indexed by topological position (the same scheme as the fault
// simulator's cone walk), so a change masked by a controlling side input
// stops paying immediately instead of sweeping the PI's full structural
// cone. Fanouts always sit at strictly higher positions, so each gate is
// evaluated at most once, after all of its changed fanins — the fixpoint is
// identical to a full cone sweep, which is what keeps Generate outcomes
// bit-identical.
func (e *Engine) implyPI(i int, piVals []logic.V) {
	e.Implications++
	c := e.c
	old := e.vals[i]
	e.evalGate(i, piVals)
	if e.vals[i] == old {
		return
	}
	bm := e.front
	maxW := -1
	for _, fo := range c.PosFanout[c.Pos[i].Out:c.Pos[i+1].Out] {
		bm[fo>>6] |= 1 << uint(fo&63)
		maxW = max(maxW, int(fo>>6))
	}
	for w := i >> 6; w <= maxW; w++ {
		for bm[w] != 0 {
			b := bits.TrailingZeros64(bm[w])
			bm[w] &^= 1 << uint(b)
			p := w<<6 | b
			prev := e.vals[p]
			e.evalGate(p, piVals)
			if e.vals[p] == prev {
				continue
			}
			for _, fo := range c.PosFanout[c.Pos[p].Out:c.Pos[p+1].Out] {
				bm[fo>>6] |= 1 << uint(fo&63)
				maxW = max(maxW, int(fo>>6))
			}
		}
	}
}

// evalGate recomputes position p's five-valued output from its fanins with
// fault injection applied, and keeps the incremental search state current:
// the PO fault-effect count and the gate's D-frontier membership. Both
// depend only on the gate's value and its fanin values, and any change to
// either re-evaluates the gate, so updating here is exhaustive.
func (e *Engine) evalGate(p int, piVals []logic.V) {
	c := e.c
	fanin := c.PosFanin[c.Pos[p].In:c.Pos[p+1].In]
	var v logic.V
	t := c.PosKind[p]
	switch t {
	case circuit.Input, circuit.DFF:
		v = piVals[p]
	case circuit.Buf:
		v = e.in(p, fanin, 0)
	case circuit.Not:
		v = e.in(p, fanin, 0).Not()
	case circuit.And, circuit.Nand:
		v = e.in(p, fanin, 0)
		for pin := 1; pin < len(fanin); pin++ {
			v = logic.And(v, e.in(p, fanin, pin))
		}
		if t == circuit.Nand {
			v = v.Not()
		}
	case circuit.Or, circuit.Nor:
		v = e.in(p, fanin, 0)
		for pin := 1; pin < len(fanin); pin++ {
			v = logic.Or(v, e.in(p, fanin, pin))
		}
		if t == circuit.Nor {
			v = v.Not()
		}
	case circuit.Xor, circuit.Xnor:
		v = e.in(p, fanin, 0)
		for pin := 1; pin < len(fanin); pin++ {
			v = logic.Xor(v, e.in(p, fanin, pin))
		}
		if t == circuit.Xnor {
			v = v.Not()
		}
	}
	if p == e.faultPos && e.faultPin < 0 {
		v = e.injectStem(v)
	}
	old := e.vals[p]
	e.vals[p] = v
	if c.Pos[p].PO >= 0 && old.IsD() != v.IsD() {
		if v.IsD() {
			e.dCount++
		} else {
			e.dCount--
		}
	}
	if t != circuit.Input {
		inDF := false
		if v == logic.VX {
			for pin := range fanin {
				if e.in(p, fanin, pin).IsD() {
					inDF = true
					break
				}
			}
		}
		e.setFrontier(p, inDF)
	}
}

// setFrontier inserts or removes position p from the maintained D-frontier
// set.
func (e *Engine) setFrontier(p int, in bool) {
	cur := e.dfPos[p] >= 0
	if in == cur {
		return
	}
	if in {
		e.dfPos[p] = int32(len(e.dfList))
		e.dfList = append(e.dfList, int32(p))
		return
	}
	k := e.dfPos[p]
	last := e.dfList[len(e.dfList)-1]
	e.dfList[k] = last
	e.dfPos[last] = k
	e.dfList = e.dfList[:len(e.dfList)-1]
	e.dfPos[p] = -1
}

// in returns the five-valued value on input pin pin of position p, whose
// fanin positions are fanin, applying the branch fault when (p, pin) is
// the fault site.
func (e *Engine) in(p int, fanin []int32, pin int) logic.V {
	v := e.vals[fanin[pin]]
	if p == e.faultPos && pin == e.faultPin {
		return e.injectStem(v)
	}
	return v
}

// fanin returns position p's fanin positions, in pin order.
func (e *Engine) fanin(p int) []int32 {
	return e.c.PosFanin[e.c.Pos[p].In:e.c.Pos[p+1].In]
}

// injectStem converts the good value at the fault site into the D-algebra
// value seen downstream.
func (e *Engine) injectStem(good logic.V) logic.V {
	switch good.Good() {
	case logic.VX:
		return logic.VX
	case logic.V0:
		if e.faultSA == 1 {
			return logic.VDbar // good 0, faulty 1
		}
		return logic.V0
	default: // good 1
		if e.faultSA == 0 {
			return logic.VD
		}
		return logic.V1
	}
}

// detected reports whether any PO currently carries a fault effect, from
// the count evalGate maintains.
func (e *Engine) detected() bool { return e.dCount > 0 }

// siteValue returns the good value at the fault site line.
func (e *Engine) siteValue() logic.V {
	if e.faultPin < 0 {
		return e.vals[e.faultPos].Good()
	}
	return e.vals[e.fanin(e.faultPos)[e.faultPin]].Good()
}

// xPathExists reports whether a path of X-valued gates connects position p
// to any primary output — a necessary condition for propagation (X-path
// check). Iterative DFS with epoch-stamped visit marks, allocation free.
func (e *Engine) xPathExists(p int) bool {
	c := e.c
	e.epoch++
	stack := e.stackBuf[:0]
	stack = append(stack, int32(p))
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.visit[g] == e.epoch {
			continue
		}
		e.visit[g] = e.epoch
		if e.vals[g] != logic.VX && !e.vals[g].IsD() {
			continue
		}
		if c.Pos[g].PO >= 0 {
			e.stackBuf = stack[:0]
			return true
		}
		stack = append(stack, c.PosFanout[c.Pos[g].Out:c.Pos[g+1].Out]...)
	}
	e.stackBuf = stack[:0]
	return false
}

// objective returns the next (position, value) goal: activate the fault if
// not yet activated, otherwise advance the D-frontier. ok=false means the
// current partial assignment cannot detect the fault.
func (e *Engine) objective() (pos int, val logic.V, ok bool) {
	sv := e.siteValue()
	want := logic.V1
	if e.faultSA == 1 {
		want = logic.V0
	}
	if sv == logic.VX {
		// Activate: drive the site line to the opposite of the stuck value.
		target := e.faultPos
		if e.faultPin >= 0 {
			target = int(e.fanin(e.faultPos)[e.faultPin])
		}
		return target, want, true
	}
	if sv != want {
		return 0, 0, false // fault cannot be activated under this assignment
	}
	// Propagate: pick the D-frontier gate closest to an output (min CO) and
	// set one of its X side-inputs to the non-controlling value. The
	// maintained set is unordered, so ties break on topological position —
	// the same gate the old in-order full scan would have picked first.
	best := -1
	for _, p32 := range e.dfList {
		p := int(p32)
		if !e.xPathExists(p) {
			continue
		}
		if best < 0 || e.Scoap.CO[p] < e.Scoap.CO[best] ||
			(e.Scoap.CO[p] == e.Scoap.CO[best] && p < best) {
			best = p
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	fanin := e.fanin(best)
	nc := nonControlling(e.c.PosKind[best])
	for pin := range fanin {
		if e.in(best, fanin, pin) == logic.VX {
			return int(fanin[pin]), nc, true
		}
	}
	return 0, 0, false
}

// nonControlling returns the side-input value that lets a fault effect pass
// through the gate type.
func nonControlling(t circuit.GateType) logic.V {
	switch t {
	case circuit.And, circuit.Nand:
		return logic.V1
	case circuit.Or, circuit.Nor:
		return logic.V0
	default: // XOR/XNOR/NOT/BUF: any value sensitizes
		return logic.V0
	}
}

// backtrace maps an objective (position, value) to an unassigned primary
// input and a value likely to achieve it, walking backward through X-valued
// gates. The PI's position is its PI index.
func (e *Engine) backtrace(pos int, val logic.V) (piIdx int, v logic.V, ok bool) {
	p, want := pos, val
	for steps := 0; steps < e.c.NumGates()+1; steps++ {
		t := e.c.PosKind[p]
		if t == circuit.Input || t == circuit.DFF {
			return p, want, true
		}
		if t.Inverting() {
			want = want.Not()
		}
		fanin := e.fanin(p)
		// Choose which X input to pursue.
		pin := -1
		switch t {
		case circuit.Buf, circuit.Not:
			pin = 0
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
			allNeeded := false
			if t == circuit.And || t == circuit.Nand {
				allNeeded = want == logic.V1 // need all 1s
			} else {
				allNeeded = want == logic.V0 // need all 0s
			}
			pin = e.pickInput(p, fanin, want, allNeeded)
		case circuit.Xor, circuit.Xnor:
			pin = e.pickInput(p, fanin, want, false)
			// Desired value on the chosen input: fold known side inputs.
			acc := want
			for k := range fanin {
				if k == pin {
					continue
				}
				sv := e.in(p, fanin, k).Good()
				if sv == logic.V1 {
					acc = acc.Not()
				}
			}
			want = acc
		}
		if pin < 0 {
			return 0, 0, false
		}
		p = int(fanin[pin])
		if e.vals[p] != logic.VX {
			return 0, 0, false // line already justified; objective stuck
		}
	}
	return 0, 0, false
}

// pickInput chooses an X-valued fanin pin of position p. With SCOAP
// guidance, the "all inputs needed" case picks the hardest line (set the
// bottleneck first), the "any input suffices" case picks the easiest.
func (e *Engine) pickInput(p int, fanin []int32, want logic.V, allNeeded bool) int {
	best, bestCost := -1, 0
	for pin, f := range fanin {
		v := e.in(p, fanin, pin)
		if v != logic.VX {
			continue
		}
		if e.Guide == GuideNaive {
			return pin
		}
		cost := e.Scoap.CC1[f]
		if want == logic.V0 {
			cost = e.Scoap.CC0[f]
		}
		if best < 0 || (allNeeded && cost > bestCost) || (!allNeeded && cost < bestCost) {
			best, bestCost = pin, cost
		}
	}
	return best
}

// Generate runs PODEM for one fault. On Detected it returns the test cube
// as five-valued PI assignments (VX = don't care), nil otherwise. The cube
// is engine-owned and valid until the next Generate; a caller that keeps it
// across calls copies it.
//
// The engine enters with its value array at the all-X fixpoint — which is
// identical under every fault injection, so no per-fault baseline
// implication is needed — and restores it on every exit path by unwinding
// the remaining decisions, each an event-driven cone walk over exactly the
// state the search had dirtied.
func (e *Engine) Generate(f fault.Fault) ([]logic.V, Status) {
	e.faultPos, e.faultPin, e.faultSA = int(e.c.Tpos[f.Gate]), f.Pin, f.SA
	piVals := e.piVals // all-X: every exit below unwinds its decisions
	e.decisionStack = e.decisionStack[:0]
	backtracks := 0
	for {
		if e.detected() {
			copy(e.cube, piVals)
			e.unwind(piVals)
			return e.cube, Detected
		}
		gate, val, ok := e.objective()
		var pi int
		var v logic.V
		if ok {
			pi, v, ok = e.backtrace(gate, val)
		}
		if ok {
			piVals[pi] = v
			e.implyPI(pi, piVals)
			e.decisionStack = append(e.decisionStack, decision{pi: pi, val: v})
			continue
		}
		// Dead end: backtrack.
		for {
			if len(e.decisionStack) == 0 {
				return nil, Redundant // fully unwound: already back at all-X
			}
			top := &e.decisionStack[len(e.decisionStack)-1]
			if !top.flipped {
				top.flipped = true
				top.val = top.val.Not()
				piVals[top.pi] = top.val
				e.implyPI(top.pi, piVals)
				backtracks++
				e.Backtracks++
				if backtracks > e.BacktrackLim {
					e.unwind(piVals)
					return nil, Aborted
				}
				break
			}
			piVals[top.pi] = logic.VX
			e.implyPI(top.pi, piVals)
			e.decisionStack = e.decisionStack[:len(e.decisionStack)-1]
		}
	}
}

// unwind pops every remaining decision, re-implying each PI back to X, and
// leaves the value array at the all-X fixpoint the next Generate expects.
func (e *Engine) unwind(piVals []logic.V) {
	for len(e.decisionStack) > 0 {
		top := e.decisionStack[len(e.decisionStack)-1]
		piVals[top.pi] = logic.VX
		e.implyPI(top.pi, piVals)
		e.decisionStack = e.decisionStack[:len(e.decisionStack)-1]
	}
}
