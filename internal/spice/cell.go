package spice

import "fmt"

// NetKind discriminates transistor network nodes.
type NetKind uint8

// Network node kinds.
const (
	KindDevice NetKind = iota
	KindSeries
	KindParallel
)

// Network is a series/parallel transistor network. A Device leaf is a
// single transistor whose gate is driven by a cell signal (external pin or
// internal stage output). The same structure describes NMOS pull-down
// networks (conducting when the gate is high) and, as the logical dual,
// PMOS pull-up networks (conducting when the gate is low).
type Network struct {
	Kind     NetKind
	Pin      int     // gate signal index, for devices
	Width    float64 // device width multiple, for devices
	Children []*Network
}

// DevW returns a single-transistor network with the given width multiple.
func DevW(pin int, w float64) *Network { return &Network{Kind: KindDevice, Pin: pin, Width: w} }

// Ser composes networks in series.
func Ser(ns ...*Network) *Network { return &Network{Kind: KindSeries, Children: ns} }

// Par composes networks in parallel.
func Par(ns ...*Network) *Network { return &Network{Kind: KindParallel, Children: ns} }

// scaleWidth multiplies every device width (drive-strength variants).
func (n *Network) scaleWidth(f float64) *Network {
	if n == nil {
		return nil
	}
	out := &Network{Kind: n.Kind, Pin: n.Pin, Width: n.Width * f}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.scaleWidth(f))
	}
	return out
}

// conducts evaluates the network digitally: NMOS devices conduct when the
// gate signal is true; with pmos set, devices conduct when the gate is
// false.
func (n *Network) conducts(sig []bool, pmos bool) bool {
	switch n.Kind {
	case KindDevice:
		v := sig[n.Pin]
		if pmos {
			return !v
		}
		return v
	case KindSeries:
		for _, c := range n.Children {
			if !c.conducts(sig, pmos) {
				return false
			}
		}
		return true
	default:
		for _, c := range n.Children {
			if c.conducts(sig, pmos) {
				return true
			}
		}
		return false
	}
}

// devCount returns the number of transistors in the network.
func (n *Network) devCount() int {
	if n == nil {
		return 0
	}
	if n.Kind == KindDevice {
		return 1
	}
	c := 0
	for _, ch := range n.Children {
		c += ch.devCount()
	}
	return c
}

// gateCap returns the total gate capacitance the network presents on signal
// pin (sum of widths of devices gated by pin, times capPerWidth).
func (n *Network) gateCap(pin int, capPerWidth float64) float64 {
	if n.Kind == KindDevice {
		if n.Pin == pin {
			return n.Width * capPerWidth
		}
		return 0
	}
	c := 0.0
	for _, ch := range n.Children {
		c += ch.gateCap(pin, capPerWidth)
	}
	return c
}

// conductance computes the equivalent conductance of the network with the
// given analog gate voltages, total terminal voltage vTot across the
// network, and device evaluator id(vgsOrVsg, vds, width). Series devices
// combine as reciprocal sums, parallel as sums — the fast-SPICE
// approximation that keeps characterization O(#devices) per step.
func (n *Network) conductance(gateV []float64, vTot float64, id func(vg, vds, w float64) float64) float64 {
	const eps = 1e-4
	v := vTot
	if v < eps {
		v = eps
	}
	switch n.Kind {
	case KindDevice:
		return id(gateV[n.Pin], v, n.Width) / v
	case KindSeries:
		inv := 0.0
		for _, c := range n.Children {
			g := c.conductance(gateV, vTot, id)
			if g <= 0 {
				return 0
			}
			inv += 1 / g
		}
		if inv == 0 {
			return 0
		}
		return 1 / inv
	default:
		g := 0.0
		for _, c := range n.Children {
			g += c.conductance(gateV, vTot, id)
		}
		return g
	}
}

// Stage is one CMOS stage: a pull-up PMOS network between VDD and the stage
// output, and the dual pull-down NMOS network between output and ground.
type Stage struct {
	PullUp   *Network
	PullDown *Network
	// IntrinsicCap is the parasitic capacitance at the stage output
	// (drain junctions plus wiring), in farads.
	IntrinsicCap float64
}

// Cell is a multi-stage CMOS standard cell. Signals 0..NumInputs-1 are the
// external pins; signal NumInputs+i is the output of stage i. The cell
// output is the last stage's output.
type Cell struct {
	Name      string
	NumInputs int
	Stages    []Stage
	// GateCapPerWidth converts device width to gate capacitance (F).
	GateCapPerWidth float64
}

// NewCell returns a cell shell with default per-width gate capacitance.
func NewCell(name string, inputs int) *Cell {
	return &Cell{Name: name, NumInputs: inputs, GateCapPerWidth: 0.35e-15}
}

// AddStage appends a stage and returns its output signal index.
func (c *Cell) AddStage(pullUp, pullDown *Network, intrinsicCap float64) int {
	c.Stages = append(c.Stages, Stage{PullUp: pullUp, PullDown: pullDown, IntrinsicCap: intrinsicCap})
	return c.NumInputs + len(c.Stages) - 1
}

// Output returns the cell output signal index.
func (c *Cell) Output() int { return c.NumInputs + len(c.Stages) - 1 }

// NumSignals returns the size of the cell's signal space.
func (c *Cell) NumSignals() int { return c.NumInputs + len(c.Stages) }

// Transistors returns the total device count (area proxy).
func (c *Cell) Transistors() int {
	t := 0
	for _, s := range c.Stages {
		t += s.PullUp.devCount() + s.PullDown.devCount()
	}
	return t
}

// PinCap returns the input capacitance of pin (gate caps of all devices the
// pin drives, across all stages).
func (c *Cell) PinCap(pin int) float64 {
	if pin < 0 || pin >= c.NumInputs {
		panic(fmt.Sprintf("spice: pin %d out of range for %s", pin, c.Name))
	}
	cap := 0.0
	for _, s := range c.Stages {
		cap += s.PullUp.gateCap(pin, c.GateCapPerWidth)
		cap += s.PullDown.gateCap(pin, c.GateCapPerWidth)
	}
	return cap
}

// internalLoad returns the capacitance that downstream in-cell stages add
// to stage output signal sig.
func (c *Cell) internalLoad(sig int) float64 {
	cap := 0.0
	for _, s := range c.Stages {
		cap += s.PullUp.gateCap(sig, c.GateCapPerWidth)
		cap += s.PullDown.gateCap(sig, c.GateCapPerWidth)
	}
	return cap
}

// Logic evaluates the cell's digital function for an input vector by
// propagating through the stages (output high iff pull-up conducts). It
// panics on contention (both or neither network conducting), which would
// indicate a malformed topology.
func (c *Cell) Logic(inputs []bool) bool {
	if len(inputs) != c.NumInputs {
		panic(fmt.Sprintf("spice: %s expects %d inputs, got %d", c.Name, c.NumInputs, len(inputs)))
	}
	sig := make([]bool, c.NumSignals())
	copy(sig, inputs)
	for i, s := range c.Stages {
		up := s.PullUp.conducts(sig, true)
		down := s.PullDown.conducts(sig, false)
		if up == down {
			panic(fmt.Sprintf("spice: %s stage %d contention/floating for %v", c.Name, i, inputs))
		}
		sig[c.NumInputs+i] = up
	}
	return sig[c.Output()]
}

// ScaleDrive returns a drive-strength variant: all widths and intrinsic
// caps multiplied by f, name suffixed.
func (c *Cell) ScaleDrive(f float64, name string) *Cell {
	out := NewCell(name, c.NumInputs)
	out.GateCapPerWidth = c.GateCapPerWidth
	for _, s := range c.Stages {
		out.Stages = append(out.Stages, Stage{
			PullUp:       s.PullUp.scaleWidth(f),
			PullDown:     s.PullDown.scaleWidth(f),
			IntrinsicCap: s.IntrinsicCap * f,
		})
	}
	return out
}
