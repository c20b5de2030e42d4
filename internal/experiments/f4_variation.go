package experiments

import (
	"sync/atomic"
	"time"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/sta"
	"repro/internal/variation"
)

// F4Result holds the Monte Carlo delay distribution and the ML-surrogate
// comparison (figure F4).
type F4Result struct {
	Circuit   string
	Nominal   float64
	Stats     variation.Stats
	MLMAPE    float64
	MLSpeedup float64
}

// RunF4 reproduces figure F4: the critical-path delay distribution under
// per-gate threshold-voltage variation, from full per-sample STA, together
// with an ML surrogate that predicts per-sample delay from cheap sample
// statistics. Shape: an approximately normal distribution centered near
// the nominal delay, with the surrogate reproducing it at a large speedup.
//
// The sweep fans out over cfg.Workers goroutines. Every sample draws from
// its own RNG stream (variation.NewSamplerAt), so the distribution is
// bit-identical for any worker count.
func RunF4(cfg Config) (*F4Result, error) {
	lib, err := library(cfg, 300, 0)
	if err != nil {
		return nil, err
	}
	c := circuit.RippleAdder(16)
	samples := 10000
	if cfg.Quick {
		c = circuit.RippleAdder(8)
		samples = 100
	}
	an, err := sta.New(c, lib)
	if err != nil {
		return nil, err
	}
	nominal, err := an.Run()
	if err != nil {
		return nil, err
	}
	// Baseline critical gates (for the surrogate's path-aware features).
	onPath := map[int]bool{}
	for _, s := range nominal.Path {
		onPath[s.Gate] = true
	}

	model := aging.Default() // reuse the alpha-power ΔVth→delay mapping
	vp := variation.Default()
	workers := parallel.Workers(cfg.Workers)
	// One STA analyzer and one derate scratch vector per worker: Run is
	// stateful, so concurrent samples must not share an analyzer.
	analyzers := make([]*sta.Analyzer, workers)
	scratch := make([][]float64, workers)
	analyzers[0] = an
	for w := 1; w < workers; w++ {
		if analyzers[w], err = sta.New(c, lib); err != nil {
			return nil, err
		}
	}
	for w := range scratch {
		scratch[w] = make([]float64, len(c.Gates))
	}

	delays := make([]float64, samples)
	feats := make([][]float64, samples)
	var staNanos atomic.Int64 // summed per-sample STA time across workers
	err = parallel.ForWorker(workers, samples, func(w, s int) error {
		sampler := variation.NewSamplerAt(vp, cfg.Seed, s)
		derates := scratch[w]
		global := sampler.Global()
		var sum, sq, mn, mx, pathSum float64
		mn, mx = 1e9, -1e9
		pathN := 0
		for g := range derates {
			dv := global + sampler.Instance(1)
			derates[g] = model.DelayFactor(dv)
			sum += dv
			sq += dv * dv
			if dv < mn {
				mn = dv
			}
			if dv > mx {
				mx = dv
			}
			if onPath[g] {
				pathSum += dv
				pathN++
			}
		}
		wan := analyzers[w]
		wan.Derates = derates
		t0 := time.Now()
		t, err := wan.Run()
		staNanos.Add(int64(time.Since(t0)))
		if err != nil {
			return err
		}
		delays[s] = t.WCDelay
		n := float64(len(derates))
		mean := sum / n
		std := sq/n - mean*mean
		if std < 0 {
			std = 0
		}
		pathMean := 0.0
		if pathN > 0 {
			pathMean = pathSum / float64(pathN)
		}
		feats[s] = []float64{global * 1e3, mean * 1e3, std * 1e6, mn * 1e3, mx * 1e3, pathMean * 1e3}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &F4Result{Circuit: c.Name, Nominal: nominal.WCDelay, Stats: variation.Summarize(delays)}

	// Surrogate: GBT on the first 40% of samples, evaluated on the rest.
	split := samples * 2 / 5
	sur := ml.NewGBTRegressor(200, 3, 0.1, cfg.Seed)
	yTrain := make([]float64, split)
	for i := range yTrain {
		yTrain[i] = delays[i] * 1e12
	}
	if err := sur.Fit(feats[:split], yTrain); err != nil {
		return nil, err
	}
	// Best of three, as the BENCH sweep times: a single timing of a short
	// batch measures machine load as much as the surrogate.
	var pred []float64
	surTime := minDuration(3, func() { pred = ml.PredictAll(sur, feats[split:]) })
	truth := make([]float64, samples-split)
	for i := range truth {
		truth[i] = delays[split+i] * 1e12
	}
	res.MLMAPE = ml.MAPE(truth, pred)
	// perSTA is per-sample simulator time summed across workers, so the
	// surrogate speedup is independent of the worker count.
	perSTA := time.Duration(staNanos.Load()) / time.Duration(samples)
	perSur := surTime / time.Duration(len(pred))
	if perSur > 0 {
		res.MLSpeedup = float64(perSTA) / float64(perSur)
	}

	cfg.printf("circuit %s, %d MC samples over %d workers (%v full STA each)\n",
		c.Name, samples, workers, perSTA.Round(time.Microsecond))
	st := res.Stats
	cfg.printf("nominal %.1f ps | MC mean %.1f ps, σ %.2f ps, p95 %.1f ps, p99 %.1f ps, max %.1f ps\n",
		res.Nominal*1e12, st.Mean*1e12, st.Std*1e12, st.P95*1e12, st.P99*1e12, st.Max*1e12)
	edges, counts := variation.Histogram(delays, 10)
	for b := 0; b < len(counts); b++ {
		bar := ""
		for k := 0; k < counts[b]*50/len(delays)+1; k++ {
			bar += "#"
		}
		cfg.printf("  %7.1f–%7.1f ps %4d %s\n", edges[b]*1e12, edges[b+1]*1e12, counts[b], bar)
	}
	cfg.printf("GBT surrogate: MAPE %.2f%% on held-out samples, %.0fx faster than per-sample STA\n",
		res.MLMAPE*100, res.MLSpeedup)
	return res, nil
}
