// Package circuit models gate-level combinational netlists: construction,
// ISCAS-style .bench serialization, levelization, structural analysis
// (SCOAP testability measures) and parametric benchmark generators.
//
// Sequential elements (DFF) are supported under the standard full-scan
// assumption: a flip-flop's output behaves as a pseudo primary input and its
// input as a pseudo primary output, so every test method in this repository
// operates on the combinational core.
package circuit

import (
	"fmt"
	"sync"
)

// GateType enumerates the supported gate functions.
type GateType uint8

// Gate function constants. Input denotes a primary input (no fanin); DFF is
// a scan flip-flop treated as pseudo-PI/pseudo-PO.
const (
	Input GateType = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	DFF
	numGateTypes
)

var gateNames = [...]string{
	Input: "INPUT", Buf: "BUF", Not: "NOT", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR", DFF: "DFF",
}

// String returns the .bench keyword for the gate type.
func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GATE(%d)", uint8(t))
}

// ParseGateType resolves a .bench keyword (case-insensitive handled by the
// parser) to a GateType.
func ParseGateType(s string) (GateType, bool) {
	for t, name := range gateNames {
		if name == s {
			return GateType(t), true
		}
	}
	return 0, false
}

// MaxFanin returns the maximum legal structural fanin count for the type,
// or -1 for unbounded. A DFF carries no structural fanin: under the
// full-scan assumption its output is a pseudo primary input and its D
// source is registered as a pseudo primary output via AddScanCell, cutting
// sequential loops out of the combinational graph.
func (t GateType) MaxFanin() int {
	switch t {
	case Input, DFF:
		return 0
	case Buf, Not:
		return 1
	default:
		return -1
	}
}

// Inverting reports whether the gate output inverts its "core" function
// (NOT, NAND, NOR, XNOR).
func (t GateType) Inverting() bool {
	return t == Not || t == Nand || t == Nor || t == Xnor
}

// Gate is one node of the netlist. Fanin and Fanout hold gate IDs, which are
// dense indices into Netlist.Gates.
type Gate struct {
	ID     int
	Name   string
	Type   GateType
	Fanin  []int
	Fanout []int
	Level  int // set by Levelize; inputs are level 0
}

// Netlist is a gate-level circuit. Gates are stored in a dense slice; PIs
// and POs reference gate IDs. A gate may be both internal and a PO.
type Netlist struct {
	Name  string
	Gates []*Gate
	PIs   []int // primary inputs (and DFF outputs under full scan)
	POs   []int // primary outputs (and DFF D-sources under full scan); grown by MarkOutput
	// ScanD maps each DFF gate ID to the gate driving its D input. The
	// edge is informational only — it is not part of the combinational
	// graph (full scan cuts it).
	ScanD  map[int]int
	byName map[string]int
	isPO   []bool // isPO[id] reports whether gate id is in POs; may be short
	order  []int  // topological order, built by Levelize
	levels int

	// compiled caches the immutable IR built by Compiled() and hash the
	// digest built by ContentHash(); compileMu serializes concurrent first
	// builds of either. Construction-time mutators (AddGate, MarkOutput,
	// ConnectScanD) invalidate both.
	compileMu sync.Mutex
	compiled  *Compiled
	hash      *[32]byte
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]int)}
}

// AddGate appends a gate with the given name, type and fanin names. All
// fanin gates must already exist. It returns the new gate's ID.
func (n *Netlist) AddGate(name string, t GateType, fanin ...string) (int, error) {
	if _, dup := n.byName[name]; dup {
		return 0, fmt.Errorf("circuit: duplicate gate name %q", name)
	}
	if mf := t.MaxFanin(); mf >= 0 && len(fanin) != mf {
		return 0, fmt.Errorf("circuit: gate %q type %v requires %d fanin, got %d", name, t, mf, len(fanin))
	}
	if t != Input && t != DFF && len(fanin) == 0 {
		return 0, fmt.Errorf("circuit: gate %q type %v requires fanin", name, t)
	}
	g := &Gate{ID: len(n.Gates), Name: name, Type: t}
	for _, fn := range fanin {
		fid, ok := n.byName[fn]
		if !ok {
			return 0, fmt.Errorf("circuit: gate %q references unknown fanin %q", name, fn)
		}
		g.Fanin = append(g.Fanin, fid)
	}
	n.Gates = append(n.Gates, g)
	n.byName[name] = g.ID
	for _, fid := range g.Fanin {
		n.Gates[fid].Fanout = append(n.Gates[fid].Fanout, g.ID)
	}
	if t == Input || t == DFF {
		n.PIs = append(n.PIs, g.ID)
	}
	n.order = nil
	n.invalidate()
	return g.ID, nil
}

// MustAddGate is AddGate that panics on error; intended for generators.
func (n *Netlist) MustAddGate(name string, t GateType, fanin ...string) int {
	id, err := n.AddGate(name, t, fanin...)
	if err != nil {
		panic(err)
	}
	return id
}

// ConnectScanD records the D-source of a scan cell (DFF) and marks it as a
// pseudo primary output. Both gates must already exist.
func (n *Netlist) ConnectScanD(dff, dSource string) error {
	fid, ok := n.byName[dff]
	if !ok || n.Gates[fid].Type != DFF {
		return fmt.Errorf("circuit: %q is not a DFF", dff)
	}
	did, ok := n.byName[dSource]
	if !ok {
		return fmt.Errorf("circuit: unknown scan D-source %q", dSource)
	}
	if n.ScanD == nil {
		n.ScanD = make(map[int]int)
	}
	n.ScanD[fid] = did
	// The scan edge is part of the encoding, and MarkOutput leaves the
	// caches alone when dSource is already an output.
	n.invalidate()
	return n.MarkOutput(dSource)
}

// MarkOutput declares the named gate a primary output. Marking an output
// again is a no-op.
func (n *Netlist) MarkOutput(name string) error {
	id, ok := n.byName[name]
	if !ok {
		return fmt.Errorf("circuit: unknown output %q", name)
	}
	if id >= len(n.isPO) {
		n.isPO = append(n.isPO, make([]bool, len(n.Gates)-len(n.isPO))...)
	} else if n.isPO[id] {
		return nil
	}
	n.isPO[id] = true
	n.POs = append(n.POs, id)
	n.invalidate()
	return nil
}

// invalidate drops the compiled IR and the content hash after a mutation.
func (n *Netlist) invalidate() {
	n.compiled = nil
	n.hash = nil
}

// GateByName returns the gate with the given name.
func (n *Netlist) GateByName(name string) (*Gate, bool) {
	id, ok := n.byName[name]
	if !ok {
		return nil, false
	}
	return n.Gates[id], true
}

// NumGates returns the total number of gates including primary inputs.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// NumLogicGates returns the number of gates excluding primary inputs/DFFs.
func (n *Netlist) NumLogicGates() int {
	c := 0
	for _, g := range n.Gates {
		if g.Type != Input && g.Type != DFF {
			c++
		}
	}
	return c
}

// Levelize assigns a level to every gate (PIs at 0, each gate one past its
// deepest fanin) and caches a topological order. It returns an error when
// the netlist contains a combinational cycle or a dangling reference.
func (n *Netlist) Levelize() error {
	if n.order != nil {
		return nil
	}
	indeg := make([]int, len(n.Gates))
	for _, g := range n.Gates {
		indeg[g.ID] = len(g.Fanin)
	}
	queue := make([]int, 0, len(n.Gates))
	for _, g := range n.Gates {
		if indeg[g.ID] == 0 {
			g.Level = 0
			queue = append(queue, g.ID)
		}
	}
	order := make([]int, 0, len(n.Gates))
	maxLevel := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		g := n.Gates[id]
		if g.Level > maxLevel {
			maxLevel = g.Level
		}
		for _, fo := range g.Fanout {
			fg := n.Gates[fo]
			if l := g.Level + 1; l > fg.Level {
				fg.Level = l
			}
			indeg[fo]--
			if indeg[fo] == 0 {
				queue = append(queue, fo)
			}
		}
	}
	if len(order) != len(n.Gates) {
		return fmt.Errorf("circuit: %s contains a combinational cycle (%d of %d gates ordered)",
			n.Name, len(order), len(n.Gates))
	}
	n.order = order
	n.levels = maxLevel + 1
	return nil
}

// TopoOrder returns gate IDs in topological order (inputs first). The caller
// must not mutate the returned slice. Levelize must have succeeded.
func (n *Netlist) TopoOrder() []int {
	if n.order == nil {
		if err := n.Levelize(); err != nil {
			panic(err)
		}
	}
	return n.order
}

// Depth returns the number of logic levels (PIs at level 0 count as one).
func (n *Netlist) Depth() int {
	n.TopoOrder()
	return n.levels
}

// Validate performs structural sanity checks: every non-input gate has
// fanin, every PO exists, no floating gates that drive nothing and are not
// POs (reported, not fatal), and the netlist is acyclic.
func (n *Netlist) Validate() error {
	if len(n.PIs) == 0 {
		return fmt.Errorf("circuit: %s has no primary inputs", n.Name)
	}
	if len(n.POs) == 0 {
		return fmt.Errorf("circuit: %s has no primary outputs", n.Name)
	}
	for _, g := range n.Gates {
		if g.Type != Input && g.Type != DFF && len(g.Fanin) == 0 {
			return fmt.Errorf("circuit: gate %q has no fanin", g.Name)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(n.Gates) {
				return fmt.Errorf("circuit: gate %q has out-of-range fanin %d", g.Name, f)
			}
		}
	}
	return n.Levelize()
}

// Stats summarizes a netlist for reporting.
type Stats struct {
	Name    string
	PIs     int
	POs     int
	Gates   int // logic gates, excluding PIs
	Depth   int
	ByType  map[GateType]int
	Fanout  float64 // average fanout of logic signals
	MaxFano int
}

// Stats computes summary statistics.
func (n *Netlist) Stats() Stats {
	s := Stats{
		Name: n.Name, PIs: len(n.PIs), POs: len(n.POs),
		Gates: n.NumLogicGates(), Depth: n.Depth(),
		ByType: make(map[GateType]int),
	}
	total, cnt := 0, 0
	for _, g := range n.Gates {
		s.ByType[g.Type]++
		total += len(g.Fanout)
		cnt++
		if len(g.Fanout) > s.MaxFano {
			s.MaxFano = len(g.Fanout)
		}
	}
	if cnt > 0 {
		s.Fanout = float64(total) / float64(cnt)
	}
	return s
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PI, %d PO, %d gates, depth %d, avg fanout %.2f",
		s.Name, s.PIs, s.POs, s.Gates, s.Depth, s.Fanout)
}

// InputIndex returns a map from gate ID to its position in PIs.
func (n *Netlist) InputIndex() map[int]int {
	m := make(map[int]int, len(n.PIs))
	for i, id := range n.PIs {
		m[id] = i
	}
	return m
}
