package atpg

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
)

// TestWideFaninFullCoverage runs the default flow on irredundant circuits
// whose NAND and XOR gates take 9, 17 and 33 inputs: every fault must be
// detected, so coverage and efficiency both reach 1.
func TestWideFaninFullCoverage(t *testing.T) {
	for _, k := range []int{9, 17, 33} {
		n := circuit.New(fmt.Sprintf("fanin%d", k))
		xs := make([]string, k)
		for i := range xs {
			xs[i] = fmt.Sprintf("x%d", i)
			n.MustAddGate(xs[i], circuit.Input)
		}
		n.MustAddGate("b", circuit.Input)
		n.MustAddGate("w", circuit.Nand, xs...)
		n.MustAddGate("p", circuit.Xor, xs...)
		n.MustAddGate("y", circuit.Or, "w", "b")
		for _, po := range []string{"w", "p", "y"} {
			if err := n.MarkOutput(po); err != nil {
				t.Fatal(err)
			}
		}
		res, err := Run(n, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage != 1 || res.Efficiency != 1 {
			t.Errorf("fanin %d: coverage %.4f, efficiency %.4f, want 1 and 1", k, res.Coverage, res.Efficiency)
		}
	}
}
