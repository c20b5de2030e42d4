// Agingsta is the reliability scenario: how much timing margin does a
// design really need after ten years in the field? It characterizes a
// library, profiles a workload, and compares the traditional worst-case
// guardband against the workload-aware and ML-predicted guardbands.
package main

import (
	"fmt"
	"log"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/spice"
)

func main() {
	fmt.Println("characterizing 300 K library (coarse grid)...")
	lib, err := liberty.Characterize("demo300", liberty.AllCells(),
		spice.Default(300), liberty.CoarseGrid(), 0) // 0 workers: GOMAXPROCS
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultAgingSTAConfig()
	for _, n := range []*circuit.Netlist{
		circuit.RippleAdder(16),
		circuit.ArrayMultiplier(8),
		circuit.ALUSlice(8),
	} {
		rep, err := core.AgingAwareSTA(n, lib, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s (mean duty %.2f, mean activity %.3f over the profiled workload)\n",
			n.Stats(), rep.MeanDuty, rep.MeanActivity)
		fmt.Printf("  fresh:            %7.1f ps\n", rep.FreshDelay*1e12)
		fmt.Printf("  worst-case aged:  %7.1f ps  (+%.1f%%)\n",
			rep.WorstCase*1e12, 100*(rep.WorstCase/rep.FreshDelay-1))
		fmt.Printf("  workload-aware:   %7.1f ps  (recovers %.0f%% of the margin)\n",
			rep.WorkloadAware*1e12, rep.SavingsFrac*100)
		fmt.Printf("  ML-predicted:     %7.1f ps  (estimator MAPE %.2f%%)\n",
			rep.MLPredicted*1e12, rep.MLMAPE*100)
	}

	// The underlying degradation physics over mission time.
	fmt.Println("\nΔVth over a 10-year mission (duty 0.5, 350 K, 1 GHz):")
	curve := core.DegradationCurve(aging.Default(),
		aging.Stress{TempK: 350, Duty: 0.5, Activity: 0.25, ClockHz: 1e9},
		[]float64{0.5, 1, 2, 5, 10})
	for _, pt := range curve {
		fmt.Printf("  %5.1f years: %5.1f mV → x%.4f delay\n", pt.Years, pt.DVth*1e3, pt.Factor)
	}
}
