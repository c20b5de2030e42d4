package experiments

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/liberty"
	"repro/internal/spice"
	"repro/internal/sta"
)

// T10Row is one temperature corner.
type T10Row struct {
	TempK       float64
	MedianDelay float64 // seconds, across all library arcs
	LibLeakage  float64 // watts, sum of cell averages
	CircuitFmax float64 // Hz, reference circuit
	CircuitLeak float64 // watts, reference circuit
}

// T10Result holds table T10 (extension: temperature corners).
type T10Result struct {
	Circuit string
	Rows    []T10Row
}

// RunT10 reproduces table T10: standard-cell delay and leakage across
// temperature corners from deep cold to hot, plus a reference circuit's
// fmax/leakage per corner. Shape: leakage falls by orders of magnitude
// toward cold (subthreshold conduction freezes out) while delay moves only
// mildly (mobility gain vs threshold rise); hot corners leak exponentially
// more and slow down.
func RunT10(cfg Config) (*T10Result, error) {
	temps := []float64{150, 250, 300, 350, 400}
	if cfg.Quick {
		temps = []float64{250, 300, 400}
	}
	ref := circuit.RippleAdder(16)
	if cfg.Quick {
		ref = circuit.RippleAdder(8)
	}
	res := &T10Result{Circuit: ref.Name}
	tw := cfg.table()
	fmt.Fprintf(tw, "temp[K]\tmedian cell delay[ps]\tlib leakage[W]\t%s fmax[MHz]\t%s leakage[W]\n", ref.Name, ref.Name)
	for _, temp := range temps {
		lib, err := liberty.Characterize(fmt.Sprintf("corner%g", temp),
			liberty.AllCells(), spice.Default(temp), liberty.CoarseGrid(), cfg.Workers)
		if err != nil {
			return nil, err
		}
		hist := lib.DelayHistogram()
		med := hist[len(hist)/2]
		an, err := sta.New(ref, lib)
		if err != nil {
			return nil, err
		}
		tm, err := an.Run()
		if err != nil {
			return nil, err
		}
		row := T10Row{
			TempK: temp, MedianDelay: med, LibLeakage: lib.TotalLeakage(),
			CircuitFmax: tm.Fmax(), CircuitLeak: an.LeakagePower(),
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(tw, "%.0f\t%.2f\t%.3g\t%.0f\t%.3g\n",
			temp, med*1e12, row.LibLeakage, row.CircuitFmax/1e6, row.CircuitLeak)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	cold, hot := res.Rows[0], res.Rows[len(res.Rows)-1]
	cfg.printf("leakage spans %.1e× from %g K to %g K; fmax shifts %.1f%%\n",
		hot.LibLeakage/cold.LibLeakage, cold.TempK, hot.TempK,
		100*(hot.CircuitFmax/cold.CircuitFmax-1))
	return res, nil
}
