// Quickstart tours the toolkit end to end on a small design: build a
// circuit, generate tests, characterize a library, time the design, age
// it, and classify some wafer maps — one taste of every subsystem.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/aging"
	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/wafer"
)

func main() {
	// 1. A circuit: an 8-bit ripple-carry adder (or parse your own .bench
	//    file with circuit.ParseBench).
	n := circuit.RippleAdder(8)
	fmt.Println("circuit:", n.Stats())

	// 2. Test generation: random phase + PODEM + compaction.
	res, err := atpg.Run(n, atpg.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ATPG: %.1f%% stuck-at coverage with %d patterns\n",
		res.Coverage*100, res.Patterns.N)

	// 3. A standard-cell library, characterized from the transistor level
	//    at 300 K (coarse grid keeps the demo fast).
	lib, err := liberty.Characterize("demo300", liberty.AllCells(),
		spice.Default(300), liberty.CoarseGrid(), 0) // 0 workers: GOMAXPROCS
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("library:", lib.Summary())

	// 4. Static timing analysis.
	an, err := sta.New(n, lib)
	if err != nil {
		log.Fatal(err)
	}
	tm, err := an.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("timing: critical path %.1f ps → fmax %.0f MHz\n",
		tm.WCDelay*1e12, tm.Fmax()/1e6)

	// 5. Aging: how much slower after ten years of a realistic workload?
	model := aging.Default()
	stress := aging.Stress{Years: 10, TempK: 350, Duty: 0.4, Activity: 0.15, ClockHz: tm.Fmax()}
	fmt.Printf("aging: 10-year ΔVth %.1f mV → delay factor %.3f (worst case %.3f)\n",
		model.DeltaVth(stress)*1e3, model.Degradation(stress),
		model.Degradation(aging.WorstCase(10, 350, tm.Fmax())))

	// 6. Wafer-map classification with hyperdimensional computing.
	cfg := wafer.DefaultConfig()
	cfg.Size = 32
	train := wafer.GenerateDataset(15, cfg, 1)
	test := wafer.GenerateDataset(5, cfg, 2)
	h := core.NewHDCWaferClassifier(2048, cfg.Size, 20, 1)
	if err := h.Fit(train); err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, m := range test.Maps {
		if h.Predict(m) == test.Labels[i] {
			correct++
		}
	}
	fmt.Printf("wafer HDC: %.0f%% accuracy on %d held-out maps\n",
		100*float64(correct)/float64(len(test.Maps)), len(test.Maps))

	// Bonus: one wafer map, up close.
	m := wafer.Generate(wafer.Donut, cfg, rand.New(rand.NewSource(7)))
	fmt.Printf("a %v map has a fail fraction of %.1f%%\n", m.Label, m.FailFraction()*100)
}
