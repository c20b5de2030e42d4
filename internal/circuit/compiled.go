package circuit

import (
	"fmt"
	"sync/atomic"
)

// Compiled is the immutable compile-once IR of a netlist: the gate graph
// indexed by topological position, flattened into CSR (compressed sparse
// row) adjacency — one backing []int32 per direction instead of a []int
// slice per gate — plus the order that maps positions to gate IDs and back.
// Position is the only graph index of the engines: the logic simulator, the
// fault simulator, PODEM and SCOAP read only the Pos* tables and keep their
// per-gate state by position. Gate IDs survive at the API edge (fault
// sites, names, PI/PO order, the netlist codec), translated through Order
// and Tpos. Compiled is built once per netlist via Netlist.Compiled and
// shared by every engine, so the compile cost is paid once — not once per
// worker goroutine or per request.
//
// Positions [0, NumPIs()) hold Net.PIs in PI order: position i is PI i, so
// a PI index and its position are the same number.
//
// Immutability contract: after Compile returns, no field of Compiled is ever
// written again; every slice may be read concurrently from any number of
// goroutines without synchronization. Callers must treat all exported slices
// as read-only. Compiled holds no mutable state.
type Compiled struct {
	Net *Netlist

	// Order holds gate IDs in topological order (inputs first): position p
	// holds gate Order[p]. Tpos is its inverse: Tpos[Order[p]] == p.
	Order []int32
	Tpos  []int32

	// Pos, PosFanin, PosFanout and PosKind are the graph. Pos[p] packs
	// position p's CSR offsets and PO index; p's fanin positions, in pin
	// order, are PosFanin[Pos[p].In:Pos[p+1].In] and its fanout positions,
	// in the netlist's fanout order, are PosFanout[Pos[p].Out:Pos[p+1].Out],
	// so Pos has NumGates()+1 records. PosKind[p] is the type of the gate at
	// position p.
	Pos       []PosNode
	PosFanin  []int32
	PosFanout []int32
	PosKind   []GateType

	// MaxFanin is the largest fanin count of any gate: the size of the
	// per-gate gather scratch an evaluator needs.
	MaxFanin int
}

// PosNode is one topological position's packed record in Compiled.Pos: the
// start offsets of its fanin and fanout runs, and its index in Net.POs (-1
// when the gate is not a primary output). A walk that reads the offsets of
// an event finds the PO index in the same record; an ID-edge caller asks
// Pos[Tpos[id]].PO.
type PosNode struct {
	In, Out, PO int32
}

// compileCount tracks the total number of Compile calls in this process; a
// test/metrics hook that pins the compile-once-per-netlist contract of the
// concurrent fault-simulation paths.
var compileCount atomic.Int64

// CompileCount returns the total number of netlist compilations performed by
// this process so far.
func CompileCount() int64 { return compileCount.Load() }

// Compile builds the immutable IR for the netlist. It validates the netlist
// (structure and acyclicity) and additionally rejects unknown gate types and
// a PI list that is not the first topological positions (AddGate and
// UnmarshalNetlist list PIs in ID order, and Levelize queues zero-fanin
// gates first in ID order, so only a hand-built PI list can fail), so a
// malformed netlist fails here — at compile time — rather than mid-
// simulation. Most callers should prefer Netlist.Compiled, which caches the
// result on the netlist.
func Compile(n *Netlist) (*Compiled, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	ng := len(n.Gates)
	for _, g := range n.Gates {
		if g.Type >= numGateTypes {
			return nil, fmt.Errorf("circuit: %s: gate %q has unknown type %v", n.Name, g.Name, g.Type)
		}
	}
	order := n.TopoOrder()
	for i, id := range n.PIs {
		if order[i] != id {
			return nil, fmt.Errorf("circuit: %s: PI %q is not at topological position %d", n.Name, n.Gates[id].Name, i)
		}
	}
	compileCount.Add(1)
	c := &Compiled{
		Net:     n,
		Order:   make([]int32, ng),
		Tpos:    make([]int32, ng),
		Pos:     make([]PosNode, ng+1),
		PosKind: make([]GateType, ng),
	}
	nIn, nOut := 0, 0
	for p, id := range order {
		c.Order[p] = int32(id)
		c.Tpos[id] = int32(p)
		nIn += len(n.Gates[id].Fanin)
		nOut += len(n.Gates[id].Fanout)
	}
	c.PosFanin = make([]int32, 0, nIn)
	c.PosFanout = make([]int32, 0, nOut)
	for p, id := range order {
		g := n.Gates[id]
		c.Pos[p] = PosNode{In: int32(len(c.PosFanin)), Out: int32(len(c.PosFanout)), PO: -1}
		c.PosKind[p] = g.Type
		c.MaxFanin = max(c.MaxFanin, len(g.Fanin))
		for _, f := range g.Fanin {
			c.PosFanin = append(c.PosFanin, c.Tpos[f])
		}
		for _, fo := range g.Fanout {
			c.PosFanout = append(c.PosFanout, c.Tpos[fo])
		}
	}
	c.Pos[ng] = PosNode{In: int32(nIn), Out: int32(nOut), PO: -1}
	for i, po := range n.POs {
		c.Pos[c.Tpos[po]].PO = int32(i)
	}
	return c, nil
}

// Compiled returns the netlist's compiled IR, building it on first use. The
// result is cached on the netlist and shared between all callers; concurrent
// first calls are serialized so compilation happens exactly once. Mutating
// the netlist (AddGate, MarkOutput, ConnectScanD) invalidates the cache.
func (n *Netlist) Compiled() (*Compiled, error) {
	n.compileMu.Lock()
	defer n.compileMu.Unlock()
	if n.compiled != nil {
		return n.compiled, nil
	}
	c, err := Compile(n)
	if err != nil {
		return nil, err
	}
	n.compiled = c
	return c, nil
}

// NumGates returns the total gate count including primary inputs.
func (c *Compiled) NumGates() int { return len(c.Order) }

// NumPIs returns the primary-input count (including scan-cell outputs).
func (c *Compiled) NumPIs() int { return len(c.Net.PIs) }

// NumPOs returns the primary-output count (including scan D-sources).
func (c *Compiled) NumPOs() int { return len(c.Net.POs) }
