package circuit

import (
	"fmt"
	"sync/atomic"
)

// Compiled is the immutable compile-once IR of a netlist: the gate graph
// flattened into CSR (compressed sparse row) adjacency — one backing []int32
// per direction instead of a []int slice per gate — plus the dense side
// tables every engine in this repository needs (topological order and its
// inverse, levels, PI/PO index maps, gate types). It is built once per
// netlist via Netlist.Compiled and shared by the logic simulators, the fault
// simulator, STA, ATPG, DFT, BIST, SCOAP and diagnosis, so the compile cost
// is paid once — not once per worker goroutine or per request.
//
// Immutability contract: after Compile returns, no field of Compiled is ever
// written again; every slice may be read concurrently from any number of
// goroutines without synchronization. Callers must treat all exported slices
// as read-only. Compiled holds no mutable state.
type Compiled struct {
	Net *Netlist

	// FaninOff/FaninDat are the CSR fanin adjacency: the fanin gate IDs of
	// gate g are FaninDat[FaninOff[g]:FaninOff[g+1]], in pin order.
	FaninOff []int32
	FaninDat []int32
	// FanoutOff/FanoutDat are the CSR fanout adjacency, in insertion order
	// (identical to the per-gate Fanout slices of the netlist).
	FanoutOff []int32
	FanoutDat []int32

	// Types[g] is gate g's function, copied dense for cache locality.
	Types []GateType
	// Level[g] is gate g's logic level (PIs at 0).
	Level []int32
	// Order holds gate IDs in topological order (inputs first); Tpos is its
	// inverse: Tpos[Order[i]] == i.
	Order []int32
	Tpos  []int32

	// PIPos[g] is g's index in Net.PIs, -1 for non-PI gates. POIdx[g] is
	// g's index in Net.POs, -1 when g is not a primary output.
	PIPos []int32
	POIdx []int32

	// Depth is the number of logic levels (PIs at level 0 count as one).
	Depth int
}

// compileCount tracks the total number of Compile calls in this process; a
// test/metrics hook that pins the compile-once-per-netlist contract of the
// concurrent fault-simulation paths.
var compileCount atomic.Int64

// CompileCount returns the total number of netlist compilations performed by
// this process so far.
func CompileCount() int64 { return compileCount.Load() }

// Compile builds the immutable IR for the netlist. It validates the netlist
// (structure and acyclicity) and additionally rejects unknown gate types, so
// a malformed netlist fails here — at compile time — rather than mid-
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
	compileCount.Add(1)
	c := &Compiled{
		Net:       n,
		FaninOff:  make([]int32, ng+1),
		FanoutOff: make([]int32, ng+1),
		Types:     make([]GateType, ng),
		Level:     make([]int32, ng),
		Order:     make([]int32, ng),
		Tpos:      make([]int32, ng),
		PIPos:     make([]int32, ng),
		POIdx:     make([]int32, ng),
		Depth:     n.Depth(),
	}
	nIn, nOut := 0, 0
	for _, g := range n.Gates {
		nIn += len(g.Fanin)
		nOut += len(g.Fanout)
	}
	c.FaninDat = make([]int32, 0, nIn)
	c.FanoutDat = make([]int32, 0, nOut)
	for _, g := range n.Gates {
		c.Types[g.ID] = g.Type
		c.Level[g.ID] = int32(g.Level)
		c.PIPos[g.ID] = -1
		c.POIdx[g.ID] = -1
		for _, f := range g.Fanin {
			c.FaninDat = append(c.FaninDat, int32(f))
		}
		c.FaninOff[g.ID+1] = int32(len(c.FaninDat))
		for _, fo := range g.Fanout {
			c.FanoutDat = append(c.FanoutDat, int32(fo))
		}
		c.FanoutOff[g.ID+1] = int32(len(c.FanoutDat))
	}
	for i, id := range n.TopoOrder() {
		c.Order[i] = int32(id)
		c.Tpos[id] = int32(i)
	}
	for i, id := range n.PIs {
		c.PIPos[id] = int32(i)
	}
	for i, po := range n.POs {
		c.POIdx[po] = int32(i)
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
func (c *Compiled) NumGates() int { return len(c.Types) }

// NumPIs returns the primary-input count (including scan-cell outputs).
func (c *Compiled) NumPIs() int { return len(c.Net.PIs) }

// NumPOs returns the primary-output count (including scan D-sources).
func (c *Compiled) NumPOs() int { return len(c.Net.POs) }

// Fanin returns gate id's fanin gate IDs in pin order. Read-only view into
// the shared CSR storage.
func (c *Compiled) Fanin(id int) []int32 {
	return c.FaninDat[c.FaninOff[id]:c.FaninOff[id+1]]
}

// Fanout returns gate id's fanout gate IDs. Read-only view into the shared
// CSR storage.
func (c *Compiled) Fanout(id int) []int32 {
	return c.FanoutDat[c.FanoutOff[id]:c.FanoutOff[id+1]]
}
