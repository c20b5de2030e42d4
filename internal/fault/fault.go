// Package fault implements the single stuck-at fault model over gate-level
// netlists: fault universe enumeration, structural equivalence collapsing,
// and serial-fault/parallel-pattern fault simulation (PPSFP) with fault
// dropping and full-signature dictionary generation for diagnosis.
package fault

import (
	"fmt"

	"repro/internal/circuit"
)

// Fault is a single stuck-at fault. Pin == -1 denotes the gate's output
// (stem) fault; Pin >= 0 denotes the fault on the gate's Pin-th input
// branch. SA is the stuck value (0 or 1).
type Fault struct {
	Gate int // gate ID in the netlist
	Pin  int // -1 for output, else input pin index
	SA   uint8
}

// String renders the fault in the conventional "signal s-a-v" notation.
func (f Fault) String() string {
	loc := "out"
	if f.Pin >= 0 {
		loc = fmt.Sprintf("in%d", f.Pin)
	}
	return fmt.Sprintf("g%d.%s/sa%d", f.Gate, loc, f.SA)
}

// Name renders the fault with netlist signal names.
func (f Fault) Name(n *circuit.Netlist) string {
	g := n.Gates[f.Gate]
	if f.Pin < 0 {
		return fmt.Sprintf("%s/sa%d", g.Name, f.SA)
	}
	return fmt.Sprintf("%s.%s/sa%d", g.Name, n.Gates[g.Fanin[f.Pin]].Name, f.SA)
}

// AllFaults enumerates the full uncollapsed stuck-at fault universe: both
// polarities on every gate output, and on every gate input branch of
// multi-fanout nets (branch faults are distinct from the stem only when the
// driver has fanout > 1; for single-fanout nets the branch is identical to
// the stem and skipped).
func AllFaults(n *circuit.Netlist) []Fault {
	var out []Fault
	for _, g := range n.Gates {
		for _, sa := range []uint8{0, 1} {
			out = append(out, Fault{Gate: g.ID, Pin: -1, SA: sa})
		}
		for pin, f := range g.Fanin {
			if len(n.Gates[f].Fanout) > 1 {
				for _, sa := range []uint8{0, 1} {
					out = append(out, Fault{Gate: g.ID, Pin: pin, SA: sa})
				}
			}
		}
	}
	return out
}

// Collapse performs structural equivalence collapsing. For each gate, input
// faults equivalent to an output fault are removed:
//
//	AND : any input sa0 ≡ output sa0      NAND: any input sa0 ≡ output sa1
//	OR  : any input sa1 ≡ output sa1      NOR : any input sa1 ≡ output sa0
//	BUF : input sa-v ≡ output sa-v        NOT : input sa-v ≡ output sa-(1-v)
//
// The representative kept is always the gate-output (stem) fault. The
// returned slice preserves the deterministic order of AllFaults filtering.
func Collapse(n *circuit.Netlist, faults []Fault) []Fault {
	out := faults[:0:0]
	for _, f := range faults {
		if f.Pin < 0 || !stemEquivalent(n.Gates[f.Gate].Type, f.SA) {
			out = append(out, f)
		}
	}
	return out
}

// stemEquivalent reports whether an input fault stuck at sa of a gate of
// type t is equivalent to one of the gate's output faults (see Collapse).
func stemEquivalent(t circuit.GateType, sa uint8) bool {
	switch t {
	case circuit.And, circuit.Nand:
		return sa == 0
	case circuit.Or, circuit.Nor:
		return sa == 1
	case circuit.Buf, circuit.Not, circuit.DFF:
		return true
	}
	return false
}

// Universe builds the standard collapsed fault list for a netlist: the
// faults of Collapse(n, AllFaults(n)) in their order, in one slice of
// exactly their number, without the uncollapsed list.
func Universe(n *circuit.Netlist) []Fault {
	out := make([]Fault, collapsedFaults(n, nil))
	collapsedFaults(n, out)
	return out
}

// collapsedFaults writes the faults of Universe into out, when out is not
// nil, and returns their number.
func collapsedFaults(n *circuit.Netlist, out []Fault) int {
	k := 0
	emit := func(f Fault) {
		if out != nil {
			out[k] = f
		}
		k++
	}
	for _, g := range n.Gates {
		emit(Fault{Gate: g.ID, Pin: -1, SA: 0})
		emit(Fault{Gate: g.ID, Pin: -1, SA: 1})
		for pin, f := range g.Fanin {
			if len(n.Gates[f].Fanout) <= 1 {
				continue
			}
			for sa := uint8(0); sa < 2; sa++ {
				if !stemEquivalent(g.Type, sa) {
					emit(Fault{Gate: g.ID, Pin: pin, SA: sa})
				}
			}
		}
	}
	return k
}
