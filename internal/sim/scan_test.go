package sim

import (
	"testing"

	"repro/internal/circuit"
)

// scanCircuit builds a tiny sequential netlist: q = DFF(d), y = AND(q, b),
// d = OR(a, q). Under full scan, q is a pseudo-PI and d a pseudo-PO.
func scanCircuit(t *testing.T) *circuit.Netlist {
	t.Helper()
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(d)
q = DFF(d)
d = OR(a, q)
y = AND(q, b)
`
	n, err := circuit.ParseBenchString(src, "scan")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDFFIsPseudoPI(t *testing.T) {
	n := scanCircuit(t)
	// PIs must be a, b, q (the DFF output).
	if len(n.PIs) != 3 {
		t.Fatalf("PIs = %d, want 3 (a, b and scan cell q)", len(n.PIs))
	}
	s := newWide(t, n)
	idx := n.InputIndex()
	pin := func(name string) int {
		g, ok := n.GateByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		return idx[g.ID]
	}
	poIdx := map[string]int{}
	for i, po := range n.POs {
		poIdx[n.Gates[po].Name] = i
	}
	// Scan in q=1, a=0, b=1: y = q&b = 1, d = a|q = 1.
	bits := make([]bool, 3)
	bits[pin("q")] = true
	bits[pin("b")] = true
	out := runPattern(s, bits)
	if !out[poIdx["y"]] || !out[poIdx["d"]] {
		t.Errorf("scan state not honored: y=%v d=%v", out[poIdx["y"]], out[poIdx["d"]])
	}
	// q=0: y must fall regardless of b, d follows a.
	bits[pin("q")] = false
	out = runPattern(s, bits)
	if out[poIdx["y"]] || out[poIdx["d"]] {
		t.Errorf("cleared scan cell leaked: y=%v d=%v", out[poIdx["y"]], out[poIdx["d"]])
	}
}

// TestEventSimScanConsistency guards the full-scan invariant in the
// event-driven simulator: propagating a change into a DFF's D input must
// NOT overwrite the scan cell's output value mid-cycle.
func TestEventSimScanConsistency(t *testing.T) {
	n := scanCircuit(t)
	es, err := NewEvent(n)
	if err != nil {
		t.Fatal(err)
	}
	ps := newWide(t, n)
	idx := n.InputIndex()
	pin := func(name string) int {
		g, _ := n.GateByName(name)
		return idx[g.ID]
	}
	// Set q=1 then toggle a (which drives d = OR(a,q), the DFF's fanin).
	// The event simulator must keep q at its scanned value.
	bits := make([]bool, 3)
	bits[pin("q")] = true
	es.SetInputs(bits)
	for _, a := range []bool{true, false, true} {
		bits[pin("a")] = a
		es.SetInputs(bits)
		want := runPattern(ps, bits)
		got := es.Outputs()
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("event/parallel disagree on scan circuit (a=%v, output %d)", a, o)
			}
		}
		q, _ := n.GateByName("q")
		if !es.Value(q.ID) {
			t.Fatal("DFF output overwritten by fanin propagation")
		}
	}
}
