// Package dft implements design-for-testability transformations:
// SCOAP-guided test-point insertion. Observation points expose
// hard-to-observe internal nets as extra pseudo-outputs; control points
// inject an AND/OR gate driven by an extra pseudo-input to fix
// hard-to-control nets. Both are the classical levers the survey's
// intelligent-test thread tunes (experiment T8 quantifies the
// coverage/pattern-count payoff).
package dft

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
)

// Plan lists the chosen test points on the original netlist.
type Plan struct {
	Observe []int // gate IDs exposed as observation points
	Control []ControlPoint
}

// ControlKind selects the forcing polarity of a control point.
type ControlKind uint8

// Control point kinds: an OR-point forces the net to 1 when the new input
// is asserted, an AND-point (with inverted input semantics here: the new
// input is ANDed in, so driving it 0 forces the net to 0) forces 0.
const (
	ForceOne ControlKind = iota
	ForceZero
)

// ControlPoint is one control insertion on a gate output.
type ControlPoint struct {
	Gate int
	Kind ControlKind
}

// SelectTestPoints chooses up to nObs observation points (worst SCOAP
// observability) and nCtl control points (worst controllability, polarity
// by the harder side). Primary inputs and outputs are never selected.
// The SCOAP measures and PO membership come from the netlist's shared
// compiled IR (cached; compiled at most once).
func SelectTestPoints(n *circuit.Netlist, nObs, nCtl int) Plan {
	comp, err := n.Compiled()
	if err != nil {
		panic(err) // matches the TopoOrder contract
	}
	s := circuit.ComputeSCOAPCompiled(comp) // by position
	type cand struct {
		id   int
		cost int
	}
	var obsCands, ctlCands []cand
	for _, g := range n.Gates {
		p := comp.Tpos[g.ID]
		if g.Type == circuit.Input || g.Type == circuit.DFF || comp.Pos[p].PO >= 0 {
			continue
		}
		obsCands = append(obsCands, cand{g.ID, s.CO[p]})
		ctlCands = append(ctlCands, cand{g.ID, max(s.CC0[p], s.CC1[p])})
	}
	sort.Slice(obsCands, func(a, b int) bool {
		if obsCands[a].cost != obsCands[b].cost {
			return obsCands[a].cost > obsCands[b].cost
		}
		return obsCands[a].id < obsCands[b].id
	})
	sort.Slice(ctlCands, func(a, b int) bool {
		if ctlCands[a].cost != ctlCands[b].cost {
			return ctlCands[a].cost > ctlCands[b].cost
		}
		return ctlCands[a].id < ctlCands[b].id
	})
	var plan Plan
	for i := 0; i < nObs && i < len(obsCands); i++ {
		plan.Observe = append(plan.Observe, obsCands[i].id)
	}
	used := map[int]bool{}
	for _, c := range ctlCands {
		if len(plan.Control) == nCtl {
			break
		}
		if used[c.id] {
			continue
		}
		used[c.id] = true
		kind := ForceZero
		if p := comp.Tpos[c.id]; s.CC1[p] > s.CC0[p] {
			kind = ForceOne // 1 is the hard value: insert an OR point
		}
		plan.Control = append(plan.Control, ControlPoint{Gate: c.id, Kind: kind})
	}
	return plan
}

// Apply rebuilds the netlist with the plan's test points inserted. Control
// points splice a new gate between the target's output and its fanouts:
//
//	ForceOne:  tp = OR(g, cp_i)   — drive cp_i = 1 to force the net
//	ForceZero: tp = AND(g, cp_i)  — drive cp_i = 0 to force the net
//
// During normal operation the new inputs are held at their non-controlling
// value. Observation points become additional primary outputs. The
// returned netlist shares no state with the input.
func Apply(n *circuit.Netlist, plan Plan) (*circuit.Netlist, error) {
	ctl := map[int]ControlKind{}
	for _, cp := range plan.Control {
		if cp.Gate < 0 || cp.Gate >= len(n.Gates) {
			return nil, fmt.Errorf("dft: control gate %d out of range", cp.Gate)
		}
		ctl[cp.Gate] = cp.Kind
	}
	out := circuit.New(n.Name + "_tp")
	// Rebuild in topological order; consumers of a controlled gate are
	// rewired to the spliced test-point gate via the name map.
	nameOf := make([]string, len(n.Gates))
	// Control-point PIs first (deterministic order by plan).
	for i, cp := range plan.Control {
		if _, err := out.AddGate(fmt.Sprintf("cp%d", i), circuit.Input); err != nil {
			return nil, err
		}
		_ = cp
	}
	cpName := map[int]string{}
	for i, cp := range plan.Control {
		cpName[cp.Gate] = fmt.Sprintf("cp%d", i)
	}
	for _, id := range n.TopoOrder() {
		g := n.Gates[id]
		if g.Type == circuit.Input {
			if _, err := out.AddGate(g.Name, circuit.Input); err != nil {
				return nil, err
			}
			nameOf[id] = g.Name
			continue
		}
		fanin := make([]string, len(g.Fanin))
		for p, f := range g.Fanin {
			fanin[p] = nameOf[f]
		}
		if _, err := out.AddGate(g.Name, g.Type, fanin...); err != nil {
			return nil, err
		}
		nameOf[id] = g.Name
		if kind, ok := ctl[id]; ok {
			tpName := g.Name + "_tp"
			gt := circuit.And
			if kind == ForceOne {
				gt = circuit.Or
			}
			if _, err := out.AddGate(tpName, gt, g.Name, cpName[id]); err != nil {
				return nil, err
			}
			nameOf[id] = tpName // downstream consumers see the spliced net
		}
	}
	for _, po := range n.POs {
		if err := out.MarkOutput(nameOf[po]); err != nil {
			return nil, err
		}
	}
	for _, ob := range plan.Observe {
		if ob < 0 || ob >= len(n.Gates) {
			return nil, fmt.Errorf("dft: observation gate %d out of range", ob)
		}
		if err := out.MarkOutput(nameOf[ob]); err != nil {
			return nil, err
		}
	}
	return out, out.Validate()
}

// Insert is the one-call flow: select and apply nObs observation and nCtl
// control points.
func Insert(n *circuit.Netlist, nObs, nCtl int) (*circuit.Netlist, Plan, error) {
	plan := SelectTestPoints(n, nObs, nCtl)
	out, err := Apply(n, plan)
	return out, plan, err
}
