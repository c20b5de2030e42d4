package fault

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// benchSetup builds a generated circuit with roughly the given gate count,
// its collapsed fault universe, and a fixed random pattern set. Seeds are
// fixed so every run (and every engine revision) measures identical work.
func benchSetup(b *testing.B, gates, patterns int) (*circuit.Netlist, []Fault, *logic.PatternSet) {
	b.Helper()
	c := circuit.Random(64, gates, 3)
	faults := Universe(c)
	rng := rand.New(rand.NewSource(1))
	p := logic.NewPatternSet(len(c.PIs), patterns)
	p.RandFill(rng.Uint64)
	return c, faults, p
}

// BenchmarkFaultSim measures PPSFP fault simulation with fault dropping on
// generated circuits of increasing size and lane widths (the acceptance
// benchmark for the event-driven engine; see BENCH_faultsim.json for the
// tracked trajectory). words=1 is the pre-multi-word engine; words=8 packs
// 512 patterns per cone walk.
func BenchmarkFaultSim(b *testing.B) {
	for _, gates := range []int{500, 2000, 8000} {
		for _, words := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("gates=%d/words=%d", gates, words), func(b *testing.B) {
				c, faults, p := benchSetup(b, gates, 256)
				fsim, err := NewSimulatorWords(c, words)
				if err != nil {
					b.Fatal(err)
				}
				fsim.Run(p, faults) // warm the simulator scratch before timing
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fsim.Run(p, faults)
				}
				b.ReportMetric(float64(len(faults)), "faults/op")
			})
		}
	}
}

// BenchmarkFaultSimConcurrent measures the multi-goroutine fault-shard path.
func BenchmarkFaultSimConcurrent(b *testing.B) {
	c, faults, p := benchSetup(b, 2000, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunConcurrent(c, p, faults, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDictionary measures full-signature dictionary generation (no
// fault dropping), the diagnosis workload, at single- and multi-word lane
// widths. One 128-pattern set is two 64-bit words, so words=2 fills a whole
// signature from one cone walk per fault.
func BenchmarkDictionary(b *testing.B) {
	for _, gates := range []int{500, 2000} {
		for _, words := range []int{1, 2} {
			b.Run(fmt.Sprintf("gates=%d/words=%d", gates, words), func(b *testing.B) {
				c, faults, p := benchSetup(b, gates, 128)
				fsim, err := NewSimulatorWords(c, words)
				if err != nil {
					b.Fatal(err)
				}
				fsim.Dictionary(p, faults)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fsim.Dictionary(p, faults)
				}
			})
		}
	}
}
