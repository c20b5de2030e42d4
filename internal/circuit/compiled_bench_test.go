package circuit

import (
	"fmt"
	"testing"
)

// BenchmarkCompile measures the cost of building the full compiled IR (topo
// order and its inverse, the position-indexed CSR fanin/fanout and records)
// from a levelized netlist. Compile is called directly — Netlist.Compiled()
// would cache and return immediately — so best-of-N reflects the build cost
// the concurrent engines pay once per netlist.
func BenchmarkCompile(b *testing.B) {
	for _, gates := range []int{500, 2000, 8000} {
		n := Random(64, gates, 3)
		n.TopoOrder() // levelize outside the timed region, like every engine does
		b.Run(fmt.Sprintf("gates=%d", gates), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
