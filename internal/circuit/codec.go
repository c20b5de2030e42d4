package circuit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
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
// PIs are not encoded: AddGate rebuilds the PI list from the gate sequence
// (Input and DFF gates become PIs in ID order), which is exactly how the
// original netlist grew its own.
const (
	netlistMagic   = "ITRN"
	netlistVersion = 1
)

// MarshalBinary encodes the netlist in the canonical binary form.
func (n *Netlist) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(netlistMagic)
	buf.WriteByte(netlistVersion)
	if err := writeName(&buf, n.Name); err != nil {
		return nil, err
	}
	if len(n.Gates) > math.MaxUint32 {
		return nil, fmt.Errorf("circuit: %d gates exceed codec limit", len(n.Gates))
	}
	writeU32(&buf, uint32(len(n.Gates)))
	for _, g := range n.Gates {
		if err := writeName(&buf, g.Name); err != nil {
			return nil, err
		}
		buf.WriteByte(byte(g.Type))
		if len(g.Fanin) > math.MaxUint16 {
			return nil, fmt.Errorf("circuit: gate %q fanin %d exceeds codec limit", g.Name, len(g.Fanin))
		}
		writeU16(&buf, uint16(len(g.Fanin)))
		for _, f := range g.Fanin {
			writeU32(&buf, uint32(f))
		}
	}
	writeU32(&buf, uint32(len(n.POs)))
	for _, po := range n.POs {
		writeU32(&buf, uint32(po))
	}
	writeU32(&buf, uint32(len(n.ScanD)))
	// Map iteration order is random; emit scan edges in DFF-ID order so the
	// encoding (and therefore ContentHash) is deterministic.
	for _, g := range n.Gates {
		if d, ok := n.ScanD[g.ID]; ok {
			writeU32(&buf, uint32(g.ID))
			writeU32(&buf, uint32(d))
		}
	}
	return buf.Bytes(), nil
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

// UnmarshalNetlist decodes a canonical binary netlist, rebuilding it through
// the ordinary construction API so every structural invariant is re-checked.
// The result is structurally identical to the encoded netlist: same gate
// IDs, names, types, fanin order, PI/PO order and scan edges.
func UnmarshalNetlist(data []byte) (*Netlist, error) {
	d := &netDecoder{data: data}
	if string(d.take(4)) != netlistMagic {
		return nil, fmt.Errorf("circuit: bad netlist magic")
	}
	if v := d.u8(); d.err == nil && v != netlistVersion {
		return nil, fmt.Errorf("circuit: netlist codec version %d, want %d", v, netlistVersion)
	}
	name := d.str()
	nGates := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	// Each gate costs at least 4 bytes (name len + type + fanin count); a
	// length-sane bound before allocating.
	if nGates < 0 || nGates > len(data) {
		return nil, fmt.Errorf("circuit: implausible gate count %d", nGates)
	}
	n := New(name)
	faninNames := make([]string, 0, 8)
	for id := 0; id < nGates; id++ {
		gname := d.str()
		typ := GateType(d.u8())
		if typ >= numGateTypes {
			if d.err == nil {
				return nil, fmt.Errorf("circuit: gate %d has unknown type %d", id, typ)
			}
			return nil, d.err
		}
		nf := int(d.u16())
		faninNames = faninNames[:0]
		for i := 0; i < nf; i++ {
			f := int(d.u32())
			if d.err != nil {
				return nil, d.err
			}
			if f < 0 || f >= id {
				return nil, fmt.Errorf("circuit: gate %d fanin %d not yet defined", id, f)
			}
			faninNames = append(faninNames, n.Gates[f].Name)
		}
		if d.err != nil {
			return nil, d.err
		}
		if _, err := n.AddGate(gname, typ, faninNames...); err != nil {
			return nil, err
		}
	}
	// The PO and scan sections are checked for canonical form as well as
	// range: MarkOutput and ConnectScanD would silently absorb a repeated
	// PO, an out-of-order scan edge or an unmarked D-source, and the
	// decoded circuit would then re-encode to different bytes.
	isPO := make([]bool, nGates)
	nPOs := int(d.u32())
	for i := 0; i < nPOs; i++ {
		po := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if po < 0 || po >= nGates {
			return nil, fmt.Errorf("circuit: PO id %d out of range", po)
		}
		if isPO[po] {
			return nil, fmt.Errorf("circuit: PO id %d listed twice", po)
		}
		isPO[po] = true
		if err := n.MarkOutput(n.Gates[po].Name); err != nil {
			return nil, err
		}
	}
	nScan := int(d.u32())
	for i, prev := 0, -1; i < nScan; i++ {
		dff := int(d.u32())
		src := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if dff < 0 || dff >= nGates || src < 0 || src >= nGates {
			return nil, fmt.Errorf("circuit: scan edge %d-%d out of range", dff, src)
		}
		if dff <= prev {
			return nil, fmt.Errorf("circuit: scan edge for DFF %d out of order", dff)
		}
		if !isPO[src] {
			return nil, fmt.Errorf("circuit: scan D-source %d is not a primary output", src)
		}
		prev = dff
		if err := n.ConnectScanD(n.Gates[dff].Name, n.Gates[src].Name); err != nil {
			return nil, err
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != d.off {
		return nil, fmt.Errorf("circuit: %d trailing bytes after netlist", len(d.data)-d.off)
	}
	return n, n.Validate()
}

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeName(buf *bytes.Buffer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("circuit: name %q exceeds codec limit", s[:32]+"…")
	}
	writeU16(buf, uint16(len(s)))
	buf.WriteString(s)
	return nil
}

// netDecoder is a sticky-error cursor over the encoded bytes: out-of-bounds
// reads record the error once and make every later read a no-op, so decode
// paths stay linear instead of error-checking every field.
type netDecoder struct {
	data []byte
	off  int
	err  error
}

func (d *netDecoder) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.data) {
		if d.err == nil {
			d.err = fmt.Errorf("circuit: truncated netlist encoding at byte %d", d.off)
		}
		return make([]byte, n)
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *netDecoder) u8() uint8   { return d.take(1)[0] }
func (d *netDecoder) u16() uint16 { return binary.BigEndian.Uint16(d.take(2)) }
func (d *netDecoder) u32() uint32 { return binary.BigEndian.Uint32(d.take(4)) }
func (d *netDecoder) str() string { return string(d.take(int(d.u16()))) }
