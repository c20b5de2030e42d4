// Characterize is the ML-for-EDA scenario from the survey's cell-library
// thread: characterize standard cells from the transistor level, cache the
// corner as an industry-style Liberty file, then train ML surrogates that
// replace the expensive transient simulations — and quantify the
// error/speedup tradeoff.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/spice"
)

func main() {
	// 1. Classic flow: full characterization of a corner, cached to .lib.
	cells := liberty.AllCells()
	fmt.Printf("characterizing %d cells at 300 K (coarse grid)...\n", len(cells))
	lib, err := liberty.Characterize("tt300", cells, spice.Default(300), liberty.CoarseGrid(), 0) // 0 workers: GOMAXPROCS
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(lib.Summary())

	f, err := os.CreateTemp("", "tt300-*.lib")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	if err := lib.WriteLib(f); err != nil {
		log.Fatal(err)
	}
	info, _ := f.Stat()
	f.Close()
	fmt.Printf("cached corner to %s (%d KiB)\n\n", f.Name(), info.Size()/1024)

	// 2. The intelligent flow: sample ground truth once, train surrogates,
	//    and predict any (cell, slew, load, aging) query point instantly.
	fmt.Println("building arc corpus across an aging ΔVth sweep...")
	data, err := core.BuildArcData(liberty.BaseCells(), spice.Default(300),
		[]float64{0, 0.03, 0.06, 0.09}, liberty.CoarseGrid())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d points, %v of transient simulation\n\n", data.Runs, data.SpiceTime.Round(1e6))

	fmt.Printf("%-12s %8s %10s %12s %10s\n", "model", "MAPE", "R²", "predict/pt", "speedup")
	var best *core.Surrogate
	bestMAPE := 1.0
	for _, mz := range core.ModelZoo(1) {
		sur, rep, err := core.TrainSurrogate(mz.Name, mz.New(), data, 0.7, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %7.2f%% %10.4f %12v %9.0fx\n",
			rep.Name, rep.MAPE*100, rep.R2, rep.PredictPer.Round(10), rep.Speedup)
		if rep.MAPE < bestMAPE {
			best, bestMAPE = sur, rep.MAPE
		}
	}

	// 3. Use the best surrogate like a characterizer: query an aged corner
	//    point that was never simulated.
	sample := data.Samples[len(data.Samples)/2]
	fmt.Printf("\nbest surrogate (%s) on a held corpus point (%s pin %d):\n",
		best.Name, sample.Cell, sample.Pin)
	fmt.Printf("  SPICE %.2f ps vs surrogate %.2f ps\n",
		sample.Delay*1e12, best.Predict(sample.Features)*1e12)
}
