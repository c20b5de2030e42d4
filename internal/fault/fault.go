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
		if f.Pin < 0 {
			out = append(out, f)
			continue
		}
		t := n.Gates[f.Gate].Type
		equiv := false
		switch t {
		case circuit.And, circuit.Nand:
			equiv = f.SA == 0
		case circuit.Or, circuit.Nor:
			equiv = f.SA == 1
		case circuit.Buf, circuit.Not, circuit.DFF:
			equiv = true
		}
		if !equiv {
			out = append(out, f)
		}
	}
	return out
}

// Universe builds the standard collapsed fault list for a netlist.
func Universe(n *circuit.Netlist) []Fault {
	return Collapse(n, AllFaults(n))
}
