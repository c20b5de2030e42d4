// Diagnosis is the failure-analysis scenario: a device fails on the
// tester — which physical defect explains the failure log? The example
// generates a test set, injects a fault, records the failing outputs
// (with tester noise), and ranks candidate defects with both the classical
// dictionary match and the learned ranker.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/diagnosis"
)

func main() {
	n := circuit.ArrayMultiplier(4)
	fmt.Println("device under diagnosis:", n.Stats())

	// Production test set from ATPG.
	gen, err := atpg.Run(n, atpg.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test set: %d patterns, %.1f%% coverage\n", gen.Patterns.N, gen.Coverage*100)

	d, err := diagnosis.NewWorkersWords(n, gen.Patterns, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dictionary: %d candidate faults\n", len(d.Faults))

	// Train the learned ranker on one third of the fault population.
	var trainSample []int
	for i := range d.Faults {
		if i%3 == 0 && d.Dict[i].FailBits() > 0 {
			trainSample = append(trainSample, i)
		}
	}
	scorer, err := core.TrainDiagnosisScorer(d, gen.Patterns, trainSample, 0.15, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Inject one specific defect and diagnose it under 20% tester noise.
	rng := rand.New(rand.NewSource(9))
	trueIdx := 0
	for i := 1; i < len(d.Faults); i++ {
		if i%3 != 0 && d.Dict[i].FailBits() > 5 {
			trueIdx = i
			break
		}
	}
	fmt.Printf("\ninjected defect: %s\n", d.Faults[trueIdx].Name(n))
	obs, err := diagnosis.Observe(n, gen.Patterns, d.Faults[trueIdx], 0.2, rng.Float64)
	if err != nil {
		log.Fatal(err)
	}

	for _, mode := range []struct {
		name   string
		scorer diagnosis.Scorer
	}{
		{"classical (Jaccard)", nil},
		{"learned ranker", scorer},
	} {
		cands := d.Diagnose(obs, mode.scorer)
		fmt.Printf("\n%s — top 5 candidates:\n", mode.name)
		for r := 0; r < 5 && r < len(cands); r++ {
			mark := " "
			if cands[r].Index == trueIdx {
				mark = "← injected"
			}
			fmt.Printf("  %d. %-20s score %.4f %s\n",
				r+1, cands[r].Fault.Name(n), cands[r].Score, mark)
		}
		fmt.Printf("  true fault rank: %d\n", d.HitRank(cands, trueIdx))
	}

	// Population-level accuracy at two noise levels.
	var cases []int
	for i := range d.Faults {
		if i%3 == 1 && d.Dict[i].FailBits() > 0 && len(cases) < 50 {
			cases = append(cases, i)
		}
	}
	for _, noise := range []float64{0, 0.2} {
		r1 := rand.New(rand.NewSource(33))
		base, err := d.Evaluate(gen.Patterns, cases, noise, r1.Float64, nil)
		if err != nil {
			log.Fatal(err)
		}
		r2 := rand.New(rand.NewSource(33))
		learned, err := d.Evaluate(gen.Patterns, cases, noise, r2.Float64, scorer)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nnoise %.0f%%: top-1 %.0f%% → %.0f%%, top-5 %.0f%% → %.0f%% (classical → learned)\n",
			noise*100, base.Top1Rate()*100, learned.Top1Rate()*100,
			base.Top5Rate()*100, learned.Top5Rate()*100)
	}
}
