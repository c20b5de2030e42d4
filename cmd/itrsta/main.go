// Command itrsta runs static timing analysis on a netlist against a
// freshly characterized standard-cell library, with optional aging and
// temperature corners.
//
// Usage:
//
//	itrsta -gen adder16                       # nominal 300 K timing
//	itrsta -gen mul8 -temp 10                 # cryogenic corner
//	itrsta -gen alu8 -years 10 -duty 0.5      # workload-aware aged timing
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/spice"
	"repro/internal/sta"
)

func main() {
	var (
		benchPath = flag.String("bench", "", "path to a .bench netlist")
		gen       = flag.String("gen", "adder16", "built-in circuit (see itratpg -h)")
		temp      = flag.Float64("temp", 300, "operating temperature [K]")
		years     = flag.Float64("years", 0, "mission time for aging analysis")
		duty      = flag.Float64("duty", 0.5, "workload duty factor (with -years)")
		coarse    = flag.Bool("coarse", false, "coarse characterization grid (faster)")
		path      = flag.Bool("path", false, "print the critical path")
		workers   = flag.Int("workers", runtime.NumCPU(), "characterization workers (results are identical for any count)")
	)
	flag.Parse()

	n, err := circuit.Load(*benchPath, *gen)
	if err != nil {
		fatal(err)
	}
	fmt.Println(n.Stats())

	grid := liberty.DefaultGrid()
	if *coarse {
		grid = liberty.CoarseGrid()
	}
	fmt.Printf("characterizing library at %g K (%d workers) ...\n", *temp, *workers)
	lib, err := liberty.Characterize("lib", liberty.AllCells(), spice.Default(*temp), grid, *workers)
	if err != nil {
		fatal(err)
	}
	fmt.Println(lib.Summary())

	an, err := sta.New(n, lib)
	if err != nil {
		fatal(err)
	}
	tm, err := an.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("critical path delay: %.1f ps  (fmax %.0f MHz)\n", tm.WCDelay*1e12, tm.Fmax()/1e6)
	fmt.Printf("shortest path delay: %.1f ps  (hold-side bound)\n", tm.MinDelay*1e12)
	fmt.Printf("cell leakage power: %.3g W\n", an.LeakagePower())

	if *path {
		fmt.Println("critical path:")
		for _, s := range tm.Path {
			edge := "fall"
			if s.Rise {
				edge = "rise"
			}
			name := n.Gates[s.Gate].Name
			fmt.Printf("  %-12s %-10s %s  arrival %7.1f ps  (+%.1f)\n",
				name, s.Cell, edge, s.Arrival*1e12, s.Delay*1e12)
		}
	}

	if *years > 0 {
		model := aging.Default()
		s := aging.Stress{Years: *years, TempK: *temp, Duty: *duty, Activity: *duty / 2, ClockHz: tm.Fmax()}
		if err := s.Validate(); err != nil {
			fatal(err)
		}
		wc := model.Degradation(aging.WorstCase(*years, *temp, tm.Fmax()))
		act := model.Degradation(s)
		an.SetUniformDerate(wc)
		wcT, err := an.Run()
		if err != nil {
			fatal(err)
		}
		an.SetUniformDerate(act)
		actT, err := an.Run()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("after %.1f years: worst-case %.1f ps, workload (duty %.2f) %.1f ps, margin recovered %.0f%%\n",
			*years, wcT.WCDelay*1e12, *duty, actT.WCDelay*1e12,
			model.GuardbandSavings(s)*100)
		// Full per-gate analysis.
		rep, err := core.AgingAwareSTA(n, lib, core.AgingSTAConfig{
			Years: *years, TempK: *temp, ClockHz: tm.Fmax(),
			Patterns: 256, Seed: 1, Model: model, MLTrainPoints: 300,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("per-gate workload-aware: %.1f ps (savings %.0f%%), ML-predicted %.1f ps (estimator MAPE %.2f%%)\n",
			rep.WorkloadAware*1e12, rep.SavingsFrac*100, rep.MLPredicted*1e12, rep.MLMAPE*100)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "itrsta:", err)
	os.Exit(1)
}
