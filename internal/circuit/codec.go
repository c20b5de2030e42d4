package circuit

import (
	"crypto/sha256"
	"fmt"
	"math"

	"repro/internal/wire"
)

// The canonical binary netlist codec. Unlike the .bench text round trip —
// which re-orders gates topologically, re-sorts outputs and re-groups DFF
// pseudo-PIs, so IDs and PI/PO positions drift — the binary form replays the
// exact construction sequence: gate IDs, PI order, PO order and scan edges
// are preserved bit for bit. That exactness is what distributed fault
// simulation relies on: a worker that decodes the coordinator's bytes
// indexes the same fault list, pattern rows and signature rows without any
// name-mapping layer, and ContentHash is a stable identity for the circuit
// (two netlists hash equal iff they were built by the same construction
// sequence).
//
// Layout (all integers big-endian):
//
//	magic "ITRN" | version u8 | name (u16 len + bytes)
//	gate count u32, then per gate in ID order:
//	    name (u16 len + bytes) | type u8 | fanin count u16 | fanin IDs u32...
//	PO count u32 | PO gate IDs u32...
//	scan count u32 | (DFF ID u32, D-source ID u32)... in DFF-ID order
//
// PIs are not encoded: the decoder rebuilds the PI list from the gate
// sequence (Input and DFF gates become PIs in ID order), which is exactly
// how AddGate grew the original netlist's own.
const (
	netlistMagic   = "ITRN"
	netlistVersion = 1
)

// MarshalBinary encodes the netlist in the canonical binary form.
func (n *Netlist) MarshalBinary() ([]byte, error) {
	// Size the buffer exactly: a large netlist encodes to hundreds of
	// kilobytes, and growing the buffer by appends would allocate several
	// times that.
	size := len(netlistMagic) + 1 + 2 + len(n.Name) + 4 + 4 + 4*len(n.POs) + 4 + 8*len(n.ScanD)
	for _, g := range n.Gates {
		size += 2 + len(g.Name) + 1 + 2 + 4*len(g.Fanin)
	}
	b := append(make([]byte, 0, size), netlistMagic...)
	b, err := writeName(append(b, netlistVersion), n.Name)
	if err != nil {
		return nil, err
	}
	if len(n.Gates) > math.MaxUint32 {
		return nil, fmt.Errorf("circuit: %d gates exceed codec limit", len(n.Gates))
	}
	b = wire.AppendU32(b, uint32(len(n.Gates)))
	for _, g := range n.Gates {
		if b, err = writeName(b, g.Name); err != nil {
			return nil, err
		}
		b = wire.AppendU8(b, byte(g.Type))
		if len(g.Fanin) > math.MaxUint16 {
			return nil, fmt.Errorf("circuit: gate %q fanin %d exceeds codec limit", g.Name, len(g.Fanin))
		}
		b = wire.AppendU16(b, uint16(len(g.Fanin)))
		for _, f := range g.Fanin {
			b = wire.AppendU32(b, uint32(f))
		}
	}
	b = wire.AppendU32(b, uint32(len(n.POs)))
	for _, po := range n.POs {
		b = wire.AppendU32(b, uint32(po))
	}
	b = wire.AppendU32(b, uint32(len(n.ScanD)))
	// Map iteration order is random; emit scan edges in DFF-ID order so the
	// encoding (and therefore ContentHash) is deterministic.
	for _, g := range n.Gates {
		if d, ok := n.ScanD[g.ID]; ok {
			b = wire.AppendU32(b, uint32(g.ID))
			b = wire.AppendU32(b, uint32(d))
		}
	}
	return b, nil
}

// ContentHash returns the sha256 of the canonical binary encoding — the
// content identity used to pin distributed jobs and artifacts to one exact
// circuit.
func (n *Netlist) ContentHash() ([32]byte, error) {
	data, err := n.MarshalBinary()
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(data), nil
}

// UnmarshalNetlist decodes a canonical binary netlist in one pass, building
// the Netlist directly: gates come from one slab, fanin IDs are taken
// straight from the bytes and fanouts from one exactly sized slab. Every
// check the construction API would make is made here too (duplicate name,
// arity, a logic gate without fanin, a scan cell that is not a DFF), as are
// the canonical-form checks and the final Validate. The result is
// structurally identical to the encoded netlist: same gate IDs, names,
// types, fanin order, fanout order, PI/PO order and scan edges.
func UnmarshalNetlist(data []byte) (*Netlist, error) {
	d := wire.NewDec(data)
	if string(d.Raw(4)) != netlistMagic {
		return nil, fmt.Errorf("circuit: bad netlist magic")
	}
	if v := d.U8(); d.Err() == nil && v != netlistVersion {
		return nil, fmt.Errorf("circuit: netlist codec version %d, want %d", v, netlistVersion)
	}
	name := readName(d)
	nGates := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Each gate costs at least 5 bytes (name len + type + fanin count), so
	// this bound keeps the pre-sized slab and map proportional to the input.
	if nGates < 0 || nGates > d.Remaining()/5 {
		return nil, fmt.Errorf("circuit: implausible gate count %d", nGates)
	}
	n := &Netlist{Name: name, Gates: make([]*Gate, nGates), byName: make(map[string]int, nGates)}
	slab := make([]Gate, nGates)
	nFanout := make([]int, nGates)
	var fanin []int // carved into per-gate fanin slices
	edges := 0
	for id := range slab {
		g := &slab[id]
		g.ID, g.Name = id, readName(d)
		g.Type = GateType(d.U8())
		nf := int(d.U16())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if g.Type >= numGateTypes {
			return nil, fmt.Errorf("circuit: gate %d has unknown type %d", id, g.Type)
		}
		// One map operation both indexes the name and detects a duplicate:
		// the map grows by one per gate unless the name was already there.
		if n.byName[g.Name] = id; len(n.byName) != id+1 {
			return nil, fmt.Errorf("circuit: duplicate gate name %q", g.Name)
		}
		if mf := g.Type.MaxFanin(); mf >= 0 && nf != mf {
			return nil, fmt.Errorf("circuit: gate %q type %v requires %d fanin, got %d", g.Name, g.Type, mf, nf)
		}
		if nf == 0 && g.Type != Input && g.Type != DFF {
			return nil, fmt.Errorf("circuit: gate %q type %v requires fanin", g.Name, g.Type)
		}
		if len(fanin) < nf {
			fanin = make([]int, max(nf, 1024))
		}
		g.Fanin, fanin = fanin[:nf:nf], fanin[nf:]
		for i := range g.Fanin {
			f := int(d.U32())
			if err := d.Err(); err != nil {
				return nil, err
			}
			if f < 0 || f >= id {
				return nil, fmt.Errorf("circuit: gate %d fanin %d not yet defined", id, f)
			}
			g.Fanin[i] = f
			nFanout[f]++
		}
		edges += nf
		n.Gates[id] = g
		if g.Type == Input || g.Type == DFF {
			n.PIs = append(n.PIs, id)
		}
	}
	// Fanouts in consumer-ID order, as AddGate appends them.
	fanout := make([]int, edges)
	for id, c := range nFanout {
		slab[id].Fanout, fanout = fanout[:0:c], fanout[c:]
	}
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			slab[f].Fanout = append(slab[f].Fanout, g.ID)
		}
	}
	// The PO and scan sections are checked for canonical form as well as
	// range: a repeated PO, an out-of-order scan edge or an unmarked
	// D-source would otherwise decode to a circuit that re-encodes to
	// different bytes.
	isPO := make([]bool, nGates)
	nPOs := int(d.U32())
	n.POs = make([]int, 0, min(nPOs, nGates))
	for i := 0; i < nPOs; i++ {
		po := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if po < 0 || po >= nGates {
			return nil, fmt.Errorf("circuit: PO id %d out of range", po)
		}
		if isPO[po] {
			return nil, fmt.Errorf("circuit: PO id %d listed twice", po)
		}
		isPO[po] = true
		n.POs = append(n.POs, po)
	}
	nScan := int(d.U32())
	for i, prev := 0, -1; i < nScan; i++ {
		dff := int(d.U32())
		src := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if dff < 0 || dff >= nGates || src < 0 || src >= nGates {
			return nil, fmt.Errorf("circuit: scan edge %d-%d out of range", dff, src)
		}
		if dff <= prev {
			return nil, fmt.Errorf("circuit: scan edge for DFF %d out of order", dff)
		}
		if slab[dff].Type != DFF {
			return nil, fmt.Errorf("circuit: %q is not a DFF", slab[dff].Name)
		}
		if !isPO[src] {
			return nil, fmt.Errorf("circuit: scan D-source %d is not a primary output", src)
		}
		prev = dff
		if n.ScanD == nil {
			n.ScanD = make(map[int]int)
		}
		n.ScanD[dff] = src
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return n, n.Validate()
}

// writeName appends a name as a u16 length prefix followed by its bytes.
func writeName(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("circuit: name %q exceeds codec limit", s[:32]+"…")
	}
	b = wire.AppendU16(b, uint16(len(s)))
	return append(b, s...), nil
}

// readName reads a name written by writeName.
func readName(d *wire.Dec) string { return string(d.Raw(int(d.U16()))) }
