// Root-level benchmarks: one testing.B target per experiment table/figure
// of DESIGN.md's experiment index. Each benchmark runs the corresponding
// experiment end to end (quick scale, output discarded) and reports its
// headline metric, so `go test -bench=.` regenerates the full study and
// `itrbench -all` prints the full-scale tables.
package repro_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/liberty"
	"repro/internal/spice"
)

func benchCfg() experiments.Config {
	return experiments.Config{Quick: true, Seed: 1, W: io.Discard}
}

// BenchmarkT1CellSurrogate — table T1: ML cell-characterization error and
// speedup against transistor-level simulation.
func BenchmarkT1CellSurrogate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunT1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		best := 1.0
		for _, r := range res.Reports {
			if r.MAPE < best {
				best = r.MAPE
			}
		}
		b.ReportMetric(best*100, "best-MAPE-%")
	}
}

// BenchmarkT2Aging — table T2: NBTI/HCI degradation over mission time.
func BenchmarkT2Aging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunT2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].Factor, "10y-delay-factor")
	}
}

// BenchmarkT3Wafer — table T3: wafer-map classification accuracy and cost.
func BenchmarkT3Wafer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunT3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Results[0].Accuracy*100, "hdc-accuracy-%")
	}
}

// BenchmarkF1HDCDim — figure F1: HDC accuracy vs hypervector dimension.
func BenchmarkF1HDCDim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunF1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[len(res.Points)-1].Accuracy*100, "max-dim-accuracy-%")
	}
}

// BenchmarkF2Coverage — figure F2: coverage vs pattern count, random vs
// ATPG.
func BenchmarkF2Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunF2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.ATPG)), "atpg-patterns")
	}
}

// BenchmarkT4ATPG — table T4: full ATPG summary with backtrace ablation.
func BenchmarkT4ATPG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunT4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		worst := 1.0
		for _, row := range res.Rows {
			if row.Result.Efficiency < worst {
				worst = row.Result.Efficiency
			}
		}
		b.ReportMetric(worst*100, "min-efficiency-%")
	}
}

// BenchmarkT5Diagnosis — table T5: diagnosis candidate ranking.
func BenchmarkT5Diagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunT5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].ML.Top1Rate()*100, "ml-top1-%")
	}
}

// BenchmarkF3Adaptive — figure F3: escape-vs-overkill tradeoff.
func BenchmarkF3Adaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunF3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, c := range res.Curves {
			if c.AUC > best {
				best = c.AUC
			}
		}
		b.ReportMetric(best, "best-AUC")
	}
}

// BenchmarkT6STA — table T6: aging-aware STA guardbands.
func BenchmarkT6STA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunT6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Reports[0].SavingsFrac*100, "margin-savings-%")
	}
}

// BenchmarkF4Variation — figure F4: Monte Carlo delay distribution vs ML
// surrogate.
func BenchmarkF4Variation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunF4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MLMAPE*100, "surrogate-MAPE-%")
	}
}

// BenchmarkF5Convergence — figure F5: HDC/MLP learning convergence.
func BenchmarkF5Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunF5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.HDCErrors[len(res.HDCErrors)-1]), "final-hdc-errors")
	}
}

// BenchmarkT8TestPoints — table T8 (extension): SCOAP-guided test-point
// insertion payoff.
func BenchmarkT8TestPoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunT8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		gain := 0.0
		for _, r := range res.Rows {
			if g := r.AfterFull - r.Before; g > gain {
				gain = g
			}
		}
		b.ReportMetric(gain*100, "best-coverage-gain-pts")
	}
}

// BenchmarkT9Transition — table T9 (extension): two-pattern transition-
// fault ATPG vs random pairs.
func BenchmarkT9Transition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunT9(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].ATPGCov*100, "tdf-coverage-%")
	}
}

// BenchmarkT10Corners — table T10 (extension): temperature-corner library
// characterization (delay/leakage vs temperature).
func BenchmarkT10Corners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunT10(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		span := res.Rows[len(res.Rows)-1].LibLeakage / res.Rows[0].LibLeakage
		b.ReportMetric(span, "leakage-span-x")
	}
}

// BenchmarkF6BIST — figure F6 (extension): LFSR/MISR logic BIST coverage
// and aliasing.
func BenchmarkF6BIST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunF6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[len(res.Points)-1].Coverage*100, "final-coverage-%")
	}
}

// BenchmarkParallelCharacterize pits the serial characterization path
// against the worker pool on the same cell set and grid. The sub-benchmark
// ratio is the library-build speedup; results are bit-identical across the
// variants (see liberty's determinism test).
func BenchmarkParallelCharacterize(b *testing.B) {
	cells := liberty.AllCells()
	p := spice.Default(300)
	grid := liberty.CoarseGrid()
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lib, err := liberty.Characterize("bench", cells, p, grid, workers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(lib.SpiceRuns), "spice-runs")
			}
		})
	}
}

// BenchmarkT7FaultSim — table T7: parallel fault-simulation speedup.
func BenchmarkT7FaultSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunT7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].Speedup, "parallel-speedup")
	}
}
