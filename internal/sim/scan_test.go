package sim

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
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

// TestScanCellHeldAgainstFanin guards the full-scan invariant: changing the
// logic that feeds a DFF's D input must not overwrite the scan cell's output
// within the cycle. Every gate value must match the reference evaluator.
func TestScanCellHeldAgainstFanin(t *testing.T) {
	n := scanCircuit(t)
	s := newWide(t, n)
	idx := n.InputIndex()
	q, _ := n.GateByName("q")
	a, _ := n.GateByName("a")
	// Scan in q=1, then toggle a, which drives d = OR(a, q), the DFF's fanin.
	bits := make([]bool, 3)
	bits[idx[q.ID]] = true
	pi := make([]logic.Word, 3)
	for _, av := range []bool{true, false, true} {
		bits[idx[a.ID]] = av
		for i, v := range bits {
			pi[i] = 0
			if v {
				pi[i] = 1
			}
		}
		vals := s.BlockRange(pi, 0, 1)
		for g, want := range refValues(n, bits) {
			if got := vals[g]&1 == 1; got != want {
				t.Fatalf("a=%v gate %s: got %v, want %v", av, n.Gates[g].Name, got, want)
			}
		}
		if vals[q.ID]&1 != 1 {
			t.Fatal("DFF output overwritten by fanin propagation")
		}
	}
}
