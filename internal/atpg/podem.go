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
// All graph structure — topological order, PI/PO index maps and CSR
// adjacency — comes from the shared immutable circuit.Compiled IR; the
// engine owns only its five-valued value array and search state.
type Engine struct {
	Net           *circuit.Netlist
	Scoap         *circuit.SCOAP
	Guide         Guide
	BacktrackLim  int // decisions un-done before aborting a fault (default 10000)
	c             *circuit.Compiled
	vals          []logic.V
	Backtracks    int64 // cumulative statistics
	Implications  int64
	faultGate     int
	faultPin      int
	faultSA       uint8
	decisionStack []decision
	visit         []int64 // epoch stamps for xPathExists
	epoch         int64
	stackBuf      []int32
	front         []uint64 // implyPI frontier bitmap over topological positions

	// Incremental search state, maintained by evalGate so the per-decision
	// O(gates) scans of the textbook loop disappear: dCount is the number of
	// POs currently carrying a fault effect (detected() is a comparison);
	// dfList/dfPos hold the current D-frontier as an unordered set with
	// swap-delete membership. Between Generate calls the value array rests
	// at the all-X fixpoint (empty frontier, zero dCount), which also makes
	// the per-fault full-circuit baseline implication unnecessary: the all-X
	// network looks identical under every fault injection.
	dCount int
	dfList []int32
	dfPos  []int32
}

type decision struct {
	pi      int // PI index
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
	}
	for i := range e.vals {
		e.vals[i] = logic.VX // the resting all-X fixpoint Generate relies on
	}
	for i := range e.dfPos {
		e.dfPos[i] = -1
	}
	return e
}

// implyPI incrementally re-implies after a single PI assignment change.
// Only gates an actual value change reaches are re-evaluated: the walk is
// event-driven over a self-clearing frontier bitmap indexed by topological
// position (the same scheme as the fault simulator's cone walk), so a
// change masked by a controlling side input stops paying immediately
// instead of sweeping the PI's full structural cone. Fanouts always sit at
// strictly higher positions, so each gate is evaluated at most once, after
// all of its changed fanins — the fixpoint is identical to a full cone
// sweep, which is what keeps Generate outcomes bit-identical.
func (e *Engine) implyPI(piIdx int, piVals []logic.V) {
	e.Implications++
	c := e.c
	id := e.Net.PIs[piIdx]
	old := e.vals[id]
	e.evalGate(id, piVals)
	if e.vals[id] == old {
		return
	}
	bm := e.front
	maxW := -1
	for _, fo := range c.Fanout(id) {
		tp := int(c.Tpos[fo])
		bm[tp>>6] |= 1 << uint(tp&63)
		if tw := tp >> 6; tw > maxW {
			maxW = tw
		}
	}
	for w := int(c.Tpos[id]) >> 6; w <= maxW; w++ {
		for bm[w] != 0 {
			b := bits.TrailingZeros64(bm[w])
			bm[w] &^= 1 << uint(b)
			g := int(c.Order[w<<6|b])
			prev := e.vals[g]
			e.evalGate(g, piVals)
			if e.vals[g] == prev {
				continue
			}
			for _, fo := range c.Fanout(g) {
				tp := int(c.Tpos[fo])
				bm[tp>>6] |= 1 << uint(tp&63)
				if tw := tp >> 6; tw > maxW {
					maxW = tw
				}
			}
		}
	}
}

// evalGate recomputes one gate's five-valued output from its fanins with
// fault injection applied, and keeps the incremental search state current:
// the PO fault-effect count and the gate's D-frontier membership. Both
// depend only on the gate's value and its fanin values, and any change to
// either re-evaluates the gate, so updating here is exhaustive.
func (e *Engine) evalGate(id int, piVals []logic.V) {
	c := e.c
	fanin := c.Fanin(id)
	var v logic.V
	t := c.Types[id]
	switch t {
	case circuit.Input, circuit.DFF:
		v = piVals[c.PIPos[id]]
	case circuit.Buf:
		v = e.in(id, fanin, 0)
	case circuit.Not:
		v = e.in(id, fanin, 0).Not()
	case circuit.And, circuit.Nand:
		v = e.in(id, fanin, 0)
		for p := 1; p < len(fanin); p++ {
			v = logic.And(v, e.in(id, fanin, p))
		}
		if t == circuit.Nand {
			v = v.Not()
		}
	case circuit.Or, circuit.Nor:
		v = e.in(id, fanin, 0)
		for p := 1; p < len(fanin); p++ {
			v = logic.Or(v, e.in(id, fanin, p))
		}
		if t == circuit.Nor {
			v = v.Not()
		}
	case circuit.Xor, circuit.Xnor:
		v = e.in(id, fanin, 0)
		for p := 1; p < len(fanin); p++ {
			v = logic.Xor(v, e.in(id, fanin, p))
		}
		if t == circuit.Xnor {
			v = v.Not()
		}
	}
	if id == e.faultGate && e.faultPin < 0 {
		v = e.injectStem(v)
	}
	old := e.vals[id]
	e.vals[id] = v
	if c.POIdx[id] >= 0 && old.IsD() != v.IsD() {
		if v.IsD() {
			e.dCount++
		} else {
			e.dCount--
		}
	}
	if t != circuit.Input {
		inDF := false
		if v == logic.VX {
			for p := range fanin {
				if e.in(id, fanin, p).IsD() {
					inDF = true
					break
				}
			}
		}
		e.setFrontier(id, inDF)
	}
}

// setFrontier inserts or removes a gate from the maintained D-frontier set.
func (e *Engine) setFrontier(id int, in bool) {
	cur := e.dfPos[id] >= 0
	if in == cur {
		return
	}
	if in {
		e.dfPos[id] = int32(len(e.dfList))
		e.dfList = append(e.dfList, int32(id))
		return
	}
	p := e.dfPos[id]
	last := e.dfList[len(e.dfList)-1]
	e.dfList[p] = last
	e.dfPos[last] = p
	e.dfList = e.dfList[:len(e.dfList)-1]
	e.dfPos[id] = -1
}

// in returns the five-valued value on input pin p of gate id, applying the
// branch fault when (id, p) is the fault site.
func (e *Engine) in(id int, fanin []int32, p int) logic.V {
	v := e.vals[fanin[p]]
	if id == e.faultGate && p == e.faultPin {
		return e.injectStem(v)
	}
	return v
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
		return e.vals[e.faultGate].Good()
	}
	return e.vals[e.c.Fanin(e.faultGate)[e.faultPin]].Good()
}

// xPathExists reports whether a path of X-valued gates connects gate id to
// any primary output — a necessary condition for propagation (X-path
// check). Iterative DFS with epoch-stamped visit marks, allocation free.
func (e *Engine) xPathExists(id int) bool {
	e.epoch++
	stack := e.stackBuf[:0]
	stack = append(stack, int32(id))
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
		if e.c.POIdx[g] >= 0 {
			e.stackBuf = stack[:0]
			return true
		}
		stack = append(stack, e.c.Fanout(int(g))...)
	}
	e.stackBuf = stack[:0]
	return false
}

// objective returns the next (gate, value) goal: activate the fault if not
// yet activated, otherwise advance the D-frontier. ok=false means the
// current partial assignment cannot detect the fault.
func (e *Engine) objective() (gate int, val logic.V, ok bool) {
	sv := e.siteValue()
	want := logic.V1
	if e.faultSA == 1 {
		want = logic.V0
	}
	if sv == logic.VX {
		// Activate: drive the site line to the opposite of the stuck value.
		target := e.faultGate
		if e.faultPin >= 0 {
			target = int(e.c.Fanin(e.faultGate)[e.faultPin])
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
	for _, id32 := range e.dfList {
		id := int(id32)
		if !e.xPathExists(id) {
			continue
		}
		if best < 0 || e.Scoap.CO[id] < e.Scoap.CO[best] ||
			(e.Scoap.CO[id] == e.Scoap.CO[best] && e.c.Tpos[id] < e.c.Tpos[best]) {
			best = id
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	fanin := e.c.Fanin(best)
	nc := nonControlling(e.c.Types[best])
	for p := range fanin {
		if e.in(best, fanin, p) == logic.VX {
			return int(fanin[p]), nc, true
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

// backtrace maps an objective (gate, value) to an unassigned primary input
// and a value likely to achieve it, walking backward through X-valued gates.
func (e *Engine) backtrace(gate int, val logic.V) (piIdx int, v logic.V, ok bool) {
	id, want := gate, val
	for steps := 0; steps < e.c.NumGates()+1; steps++ {
		t := e.c.Types[id]
		if t == circuit.Input || t == circuit.DFF {
			return int(e.c.PIPos[id]), want, true
		}
		if t.Inverting() {
			want = want.Not()
		}
		fanin := e.c.Fanin(id)
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
			pin = e.pickInput(id, fanin, want, allNeeded)
		case circuit.Xor, circuit.Xnor:
			pin = e.pickInput(id, fanin, want, false)
			// Desired value on the chosen input: fold known side inputs.
			acc := want
			for p := range fanin {
				if p == pin {
					continue
				}
				sv := e.in(id, fanin, p).Good()
				if sv == logic.V1 {
					acc = acc.Not()
				}
			}
			want = acc
		}
		if pin < 0 {
			return 0, 0, false
		}
		id = int(fanin[pin])
		if e.vals[id] != logic.VX {
			return 0, 0, false // line already justified; objective stuck
		}
	}
	return 0, 0, false
}

// pickInput chooses an X-valued fanin pin. With SCOAP guidance, the
// "all inputs needed" case picks the hardest line (set the bottleneck
// first), the "any input suffices" case picks the easiest.
func (e *Engine) pickInput(id int, fanin []int32, want logic.V, allNeeded bool) int {
	best, bestCost := -1, 0
	for p, f := range fanin {
		v := e.in(id, fanin, p)
		if v != logic.VX {
			continue
		}
		if e.Guide == GuideNaive {
			return p
		}
		cost := e.Scoap.CC1[f]
		if want == logic.V0 {
			cost = e.Scoap.CC0[f]
		}
		if best < 0 || (allNeeded && cost > bestCost) || (!allNeeded && cost < bestCost) {
			best, bestCost = p, cost
		}
	}
	return best
}

// Generate runs PODEM for one fault. On Detected it returns the test cube
// as five-valued PI assignments (VX = don't care).
//
// The engine enters with its value array at the all-X fixpoint — which is
// identical under every fault injection, so no per-fault baseline
// implication is needed — and restores it on every exit path by unwinding
// the remaining decisions, each an event-driven cone walk over exactly the
// state the search had dirtied.
func (e *Engine) Generate(f fault.Fault) ([]logic.V, Status) {
	e.faultGate, e.faultPin, e.faultSA = f.Gate, f.Pin, f.SA
	piVals := make([]logic.V, len(e.Net.PIs))
	for i := range piVals {
		piVals[i] = logic.VX
	}
	e.decisionStack = e.decisionStack[:0]
	backtracks := 0
	for {
		if e.detected() {
			out := make([]logic.V, len(piVals))
			copy(out, piVals)
			e.unwind(piVals)
			return out, Detected
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
