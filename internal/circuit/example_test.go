package circuit_test

import (
	"fmt"

	"repro/internal/circuit"
)

func ExampleParseBenchString() {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NAND(a, b)
`
	n, err := circuit.ParseBenchString(src, "tiny")
	if err != nil {
		panic(err)
	}
	fmt.Println(n.Stats())
	// Output: tiny: 2 PI, 1 PO, 1 gates, depth 2, avg fanout 0.67
}

func ExampleComputeSCOAPCompiled() {
	n := circuit.MustC17()
	c, _ := n.Compiled()
	s := circuit.ComputeSCOAPCompiled(c) // by topological position
	g22, _ := n.GateByName("G22")
	p := c.Tpos[g22.ID]
	fmt.Printf("G22: CC0=%d CC1=%d CO=%d\n", s.CC0[p], s.CC1[p], s.CO[p])
	// Output: G22: CC0=5 CC1=4 CO=0
}

func ExampleRippleAdder() {
	n := circuit.RippleAdder(4)
	fmt.Printf("%d inputs, %d outputs, %d gates\n", len(n.PIs), len(n.POs), n.NumLogicGates())
	// Output: 9 inputs, 5 outputs, 21 gates
}
