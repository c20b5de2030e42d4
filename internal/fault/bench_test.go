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
// 512 patterns per cone walk. The gates=32000 row is the perfbench faultsim
// shape: 128 patterns, a 2-word set on a W=8 simulator, on a circuit whose
// values overflow the caches.
func BenchmarkFaultSim(b *testing.B) {
	for _, gates := range []int{500, 2000, 8000} {
		for _, words := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("gates=%d/words=%d", gates, words), func(b *testing.B) {
				benchRun(b, gates, words, 256)
			})
		}
	}
	b.Run("gates=32000/words=8", func(b *testing.B) { benchRun(b, 32000, 8, 128) })
}

// benchRun times Simulator.Run over the collapsed universe of benchSetup's
// circuit. Ops alternate between benchSetup's set and a second set of the
// same size, so no op finds its PI words in RunInto's good-value memo:
// every op times the good simulation as well as the drop pass.
func benchRun(b *testing.B, gates, words, patterns int) {
	c, faults, p := benchSetup(b, gates, patterns)
	q := logic.NewPatternSet(len(c.PIs), patterns)
	q.RandFill(rand.New(rand.NewSource(2)).Uint64)
	sets := [2]*logic.PatternSet{p, q}
	fsim, err := New(c, Options{Words: words})
	if err != nil {
		b.Fatal(err)
	}
	fsim.Run(p, faults) // warm the simulator scratch before timing
	fsim.Run(q, faults)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsim.Run(sets[i%2], faults)
	}
	b.ReportMetric(float64(len(faults)), "faults/op")
}

// BenchmarkFaultSimConcurrent measures the multi-goroutine fault-shard path.
func BenchmarkFaultSimConcurrent(b *testing.B) {
	c, faults, p := benchSetup(b, 2000, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunConcurrent(c, p, faults, Options{}); err != nil {
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
				fsim, err := New(c, Options{Words: words})
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

// BenchmarkStageProbe measures the ATPG flow's probe shape: every fault of
// gparity32x60's collapsed universe probed against 300 staged random
// patterns on a W=8 simulator, one op per pass over the fault list.
func BenchmarkStageProbe(b *testing.B) {
	c := circuit.GatedParity(32, 60, 12)
	faults := Universe(c)
	p := logic.NewPatternSet(len(c.PIs), 300)
	p.RandFill(rand.New(rand.NewSource(1)).Uint64)
	fsim, err := New(c, Options{Words: 8})
	if err != nil {
		b.Fatal(err)
	}
	fsim.Stage(p)
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits = 0
		for _, f := range faults {
			if fsim.Probe(f) {
				hits++
			}
		}
	}
	b.ReportMetric(float64(hits), "hits/op")
	b.ReportMetric(float64(len(faults)), "faults/op")
}
