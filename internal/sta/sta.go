// Package sta performs graph-based static timing analysis of gate-level
// netlists against a characterized liberty.Library: technology mapping with
// load-based drive selection, rise/fall arrival-time and slew propagation
// through NLDM table lookups, critical-path extraction, and per-gate derate
// hooks for aging and process-variation analysis (experiments T6/F4).
package sta

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/liberty"
)

// Analyzer binds a netlist to a library with a concrete cell mapping.
type Analyzer struct {
	Net *circuit.Netlist
	Lib *liberty.Library

	// WireCapPerFanout models routing load per fanout branch, farads.
	WireCapPerFanout float64
	// PrimaryLoad is the capacitance seen by primary outputs, farads.
	PrimaryLoad float64
	// InputSlew is the transition time applied at primary inputs, seconds.
	InputSlew float64

	// Derates holds a per-gate multiplicative delay factor (aging,
	// variation); nil or 1.0 entries mean nominal.
	Derates []float64

	cells []*liberty.Cell // per gate ID; nil for PIs
	loads []float64       // per gate ID: capacitive load on the gate output
}

// New maps every logic gate to a library cell (drive strength picked from
// the output load) and precomputes loads. It fails when the netlist does
// not compile or the library lacks a cell for some gate type/fanin
// combination. STA is indexed by gate ID and reads the netlist's own gate
// slices and topological order; the compiled IR (cached on the netlist and
// shared with every other engine bound to it) answers PO membership.
func New(n *circuit.Netlist, lib *liberty.Library) (*Analyzer, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	a := &Analyzer{
		Net:              n,
		Lib:              lib,
		WireCapPerFanout: 0.2e-15,
		PrimaryLoad:      2e-15,
		InputSlew:        10e-12,
		cells:            make([]*liberty.Cell, len(n.Gates)),
		loads:            make([]float64, len(n.Gates)),
	}
	// First pass with X1 cells to estimate loads, then size drives.
	base := make([]string, len(n.Gates))
	for _, g := range n.Gates {
		if g.Type == circuit.Input || g.Type == circuit.DFF {
			continue // timing startpoints: no mapped combinational cell
		}
		name, err := liberty.CellFor(g.Type, len(g.Fanin))
		if err != nil {
			return nil, fmt.Errorf("sta: gate %s: %w", g.Name, err)
		}
		base[g.ID] = name
	}
	pick := func(baseName string, load float64) (*liberty.Cell, error) {
		suffix := "_X1"
		switch {
		case load > 8e-15:
			suffix = "_X4"
		case load > 3e-15:
			suffix = "_X2"
		}
		c, ok := lib.Cell(baseName + suffix)
		if !ok {
			// Fall back to X1 when the library was characterized without
			// drive variants.
			if c, ok = lib.Cell(baseName + "_X1"); !ok {
				if c, ok = lib.Cell(baseName); !ok {
					return nil, fmt.Errorf("sta: library lacks cell %s", baseName)
				}
			}
		}
		return c, nil
	}
	// Iterate sizing twice: loads depend on chosen pin caps and vice versa.
	for iter := 0; iter < 2; iter++ {
		for _, g := range n.Gates {
			load := a.WireCapPerFanout * float64(len(g.Fanout))
			for _, fo := range g.Fanout {
				pin := faninIndex(n.Gates[fo], g.ID)
				if fc := a.cells[fo]; fc != nil && pin < len(fc.PinCaps) {
					load += fc.PinCaps[pin]
				} else {
					load += 0.8e-15 // pre-sizing estimate
				}
			}
			if c.Pos[c.Tpos[g.ID]].PO >= 0 {
				load += a.PrimaryLoad
			}
			a.loads[g.ID] = load
			if g.Type != circuit.Input && g.Type != circuit.DFF {
				cell, err := pick(base[g.ID], load)
				if err != nil {
					return nil, err
				}
				a.cells[g.ID] = cell
			}
		}
	}
	return a, nil
}

// faninIndex returns the pin position of driver id on gate g's inputs.
func faninIndex(g *circuit.Gate, id int) int {
	for i, f := range g.Fanin {
		if f == id {
			return i
		}
	}
	return 0
}

// CellName returns the mapped cell of a gate ("" for PIs).
func (a *Analyzer) CellName(id int) string {
	if a.cells[id] == nil {
		return ""
	}
	return a.cells[id].Name
}

// Load returns the capacitive load on gate id's output.
func (a *Analyzer) Load(id int) float64 { return a.loads[id] }

// PathStep is one gate on the critical path.
type PathStep struct {
	Gate    int
	Cell    string
	Rise    bool // output edge
	Arrival float64
	Delay   float64
}

// Timing is the result of one STA run.
type Timing struct {
	ArrivalRise []float64
	ArrivalFall []float64
	SlewRise    []float64
	SlewFall    []float64
	// WCDelay is the worst arrival over all POs and edges (critical path
	// delay).
	WCDelay float64
	// MinDelay is the earliest arrival over all POs and edges (the
	// shortest sensitizable-in-topology path, used for hold-style checks:
	// a full-scan capture is hold-safe when MinDelay exceeds the capture
	// element's hold requirement).
	MinDelay float64
	// CriticalPO and CriticalRise identify the endpoint.
	CriticalPO   int
	CriticalRise bool
	Path         []PathStep
	// TotalEnergy sums per-arc switching energy along worst arcs — a rough
	// dynamic-energy indicator (J per full activity cycle).
	TotalEnergy float64
}

// Fmax converts the critical delay to a maximum clock frequency.
func (t *Timing) Fmax() float64 {
	if t.WCDelay <= 0 {
		return math.Inf(1)
	}
	return 1 / t.WCDelay
}

type pred struct {
	gate int
	rise bool
}

// Run propagates arrivals/slews and extracts the critical path.
func (a *Analyzer) Run() (*Timing, error) {
	n := a.Net
	ng := len(n.Gates)
	res := &Timing{
		ArrivalRise: make([]float64, ng),
		ArrivalFall: make([]float64, ng),
		SlewRise:    make([]float64, ng),
		SlewFall:    make([]float64, ng),
	}
	predRise := make([]pred, ng)
	predFall := make([]pred, ng)
	minArr := make([]float64, ng) // earliest arrival, edge-merged
	for i := 0; i < ng; i++ {
		res.ArrivalRise[i] = math.Inf(-1)
		res.ArrivalFall[i] = math.Inf(-1)
		minArr[i] = math.Inf(1)
		predRise[i] = pred{gate: -1}
		predFall[i] = pred{gate: -1}
	}
	for _, pi := range n.PIs {
		res.ArrivalRise[pi], res.ArrivalFall[pi] = 0, 0
		res.SlewRise[pi], res.SlewFall[pi] = a.InputSlew, a.InputSlew
		minArr[pi] = 0
	}
	derate := func(id int) float64 {
		if a.Derates == nil || id >= len(a.Derates) || a.Derates[id] == 0 {
			return 1
		}
		return a.Derates[id]
	}
	for _, id := range n.TopoOrder() {
		if t := n.Gates[id].Type; t == circuit.Input || t == circuit.DFF {
			continue
		}
		cell := a.cells[id]
		load := a.loads[id]
		d := derate(id)
		for pin, fi := range n.Gates[id].Fanin {
			for _, inRise := range []bool{true, false} {
				var inArr, inSlew float64
				if inRise {
					inArr, inSlew = res.ArrivalRise[fi], res.SlewRise[fi]
				} else {
					inArr, inSlew = res.ArrivalFall[fi], res.SlewFall[fi]
				}
				if math.IsInf(inArr, -1) {
					continue
				}
				arc, ok := cell.Arc(pin, inRise)
				if !ok {
					return nil, fmt.Errorf("sta: cell %s lacks arc pin %d inRise=%v", cell.Name, pin, inRise)
				}
				delay := arc.Delay.Lookup(inSlew, load) * d
				slew := arc.OutSlew.Lookup(inSlew, load)
				arr := inArr + delay
				if early := minArr[fi] + delay; early < minArr[id] {
					minArr[id] = early
				}
				if arc.OutRise {
					if arr > res.ArrivalRise[id] {
						res.ArrivalRise[id] = arr
						res.SlewRise[id] = slew
						predRise[id] = pred{gate: fi, rise: inRise}
					}
				} else {
					if arr > res.ArrivalFall[id] {
						res.ArrivalFall[id] = arr
						res.SlewFall[id] = slew
						predFall[id] = pred{gate: fi, rise: inRise}
					}
				}
				res.TotalEnergy += arc.Energy.Lookup(inSlew, load)
			}
		}
		// Unreached edges (possible for deeply unate structures): mirror the
		// other edge so downstream lookups stay sane.
		if math.IsInf(res.ArrivalRise[id], -1) {
			res.ArrivalRise[id] = res.ArrivalFall[id]
			res.SlewRise[id] = res.SlewFall[id]
			predRise[id] = predFall[id]
		}
		if math.IsInf(res.ArrivalFall[id], -1) {
			res.ArrivalFall[id] = res.ArrivalRise[id]
			res.SlewFall[id] = res.SlewRise[id]
			predFall[id] = predRise[id]
		}
	}
	// Worst and earliest endpoints.
	res.WCDelay = math.Inf(-1)
	res.MinDelay = math.Inf(1)
	for _, po := range n.POs {
		if res.ArrivalRise[po] > res.WCDelay {
			res.WCDelay = res.ArrivalRise[po]
			res.CriticalPO, res.CriticalRise = po, true
		}
		if res.ArrivalFall[po] > res.WCDelay {
			res.WCDelay = res.ArrivalFall[po]
			res.CriticalPO, res.CriticalRise = po, false
		}
		if minArr[po] < res.MinDelay {
			res.MinDelay = minArr[po]
		}
	}
	// Backtrack the critical path.
	id, rise := res.CriticalPO, res.CriticalRise
	for id >= 0 {
		arr := res.ArrivalRise[id]
		if !rise {
			arr = res.ArrivalFall[id]
		}
		step := PathStep{Gate: id, Cell: a.CellName(id), Rise: rise, Arrival: arr}
		var p pred
		if rise {
			p = predRise[id]
		} else {
			p = predFall[id]
		}
		if p.gate >= 0 {
			pArr := res.ArrivalRise[p.gate]
			if !p.rise {
				pArr = res.ArrivalFall[p.gate]
			}
			step.Delay = arr - pArr
		}
		res.Path = append(res.Path, step)
		if len(res.Path) > len(n.Gates) {
			return nil, fmt.Errorf("sta: critical path backtrack did not terminate")
		}
		id, rise = p.gate, p.rise
	}
	// Reverse to source→sink order.
	for i, j := 0, len(res.Path)-1; i < j; i, j = i+1, j-1 {
		res.Path[i], res.Path[j] = res.Path[j], res.Path[i]
	}
	return res, nil
}

// LeakagePower sums the average leakage of every mapped cell instance.
func (a *Analyzer) LeakagePower() float64 {
	total := 0.0
	for _, c := range a.cells {
		if c != nil {
			total += c.LeakageAvg
		}
	}
	return total
}

// SetUniformDerate applies one factor to every gate.
func (a *Analyzer) SetUniformDerate(f float64) {
	a.Derates = make([]float64, len(a.Net.Gates))
	for i := range a.Derates {
		a.Derates[i] = f
	}
}
