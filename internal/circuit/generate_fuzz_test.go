package circuit

import (
	"bytes"
	"testing"
)

// FuzzRandomCircuit drives the generated-circuit builder that backs the
// benchmark tiers (including the 32k- and 100k-gate fault-simulation rows)
// across arbitrary sizes and seeds. Contract under test: Random never
// produces an invalid netlist, the result always compiles into the shared
// CSR IR, the primary-output set matches the builder's spec (every
// no-fanout non-Input gate is a PO, with the last signal as fallback when
// everything has fanout), and the construction is deterministic in
// (nIn, nGates, seed).
func FuzzRandomCircuit(f *testing.F) {
	// Seed corpus: the benchmark-tier shapes (64 PIs, seed 3 — the exact
	// circuits in BENCH_faultsim.json, scaled down) plus boundary sizes.
	f.Add(2, 1, int64(0))
	f.Add(2, 2, int64(1))
	f.Add(64, 500, int64(3))
	f.Add(64, 2000, int64(3))
	f.Add(8, 120, int64(7))
	f.Add(6, 40, int64(-1))
	f.Add(128, 3000, int64(42))
	f.Add(0, 23, int64(42)) // 2 PIs, and the first gate draws 3 inputs
	f.Fuzz(func(t *testing.T, nIn, nGates int, seed int64) {
		// Clamp into the builder's documented domain; sizes beyond the
		// 100k benchmark tier only cost fuzz time, not coverage.
		nIn = 2 + abs(nIn)%127        // [2, 128]
		nGates = 1 + abs(nGates)%3000 // [1, 3000]
		n := Random(nIn, nGates, seed)
		if got := len(n.PIs); got != nIn {
			t.Fatalf("Random(%d,%d,%d): %d PIs, want %d", nIn, nGates, seed, got, nIn)
		}
		if got := n.NumLogicGates(); got != nGates {
			t.Fatalf("Random(%d,%d,%d): %d logic gates, want %d", nIn, nGates, seed, got, nGates)
		}
		// PO spec: every non-Input gate with no fanout is marked, and if no
		// gate qualifies the last-added signal is the single fallback PO.
		wantPOs := 0
		for _, g := range n.Gates {
			if len(g.Fanout) == 0 && g.Type != Input {
				wantPOs++
			}
		}
		if wantPOs == 0 {
			wantPOs = 1
		}
		if got := len(n.POs); got != wantPOs {
			t.Fatalf("Random(%d,%d,%d): %d POs, want %d per builder spec", nIn, nGates, seed, got, wantPOs)
		}
		c, err := Compile(n)
		if err != nil {
			t.Fatalf("Random(%d,%d,%d) does not compile: %v", nIn, nGates, seed, err)
		}
		if got := c.NumGates(); got != len(n.Gates) {
			t.Fatalf("compiled IR has %d gates, netlist has %d", got, len(n.Gates))
		}
		// Same arguments must rebuild the identical circuit: the benchmark
		// trajectory depends on every run measuring the same netlist.
		var a, b bytes.Buffer
		if err := n.WriteBench(&a); err != nil {
			t.Fatal(err)
		}
		if err := Random(nIn, nGates, seed).WriteBench(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("Random(%d,%d,%d) is not deterministic", nIn, nGates, seed)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		if v == -v { // math.MinInt
			return 0
		}
		return -v
	}
	return v
}
