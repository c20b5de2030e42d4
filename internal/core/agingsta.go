package core

import (
	"fmt"
	"math/rand"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/liberty"
	"repro/internal/logic"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/sta"
)

// AgingSTAConfig describes the mission scenario for aging-aware timing.
type AgingSTAConfig struct {
	Years    float64
	TempK    float64
	ClockHz  float64
	Patterns int // workload sample length for activity profiling
	Seed     int64
	Model    aging.Model
	// MLTrainPoints is the number of (stress → degradation) pairs sampled
	// to fit the learned aging estimator (default 400).
	MLTrainPoints int
}

// DefaultAgingSTAConfig returns a 10-year, 350 K, 1 GHz mission.
func DefaultAgingSTAConfig() AgingSTAConfig {
	return AgingSTAConfig{
		Years: 10, TempK: 350, ClockHz: 1e9,
		Patterns: 512, Seed: 1, Model: aging.Default(),
		MLTrainPoints: 400,
	}
}

// AgingSTAReport compares guardbanding strategies (experiment T6).
type AgingSTAReport struct {
	Circuit       string
	FreshDelay    float64 // seconds, nominal STA
	WorstCase     float64 // uniform worst-case-aged STA
	WorkloadAware float64 // per-gate workload-derated STA (exact model)
	MLPredicted   float64 // per-gate derates from the learned estimator
	// SavingsFrac is the share of the worst-case margin recovered by
	// workload awareness; MLSavings the same with the learned estimator.
	SavingsFrac float64
	MLSavings   float64
	// MLMAPE is the learned estimator's error on held-out stress points.
	MLMAPE float64
	// MeanDuty/MeanActivity summarize the profiled workload.
	MeanDuty     float64
	MeanActivity float64
}

// WorkloadProfile estimates each gate's signal probability (fraction of
// patterns on which its output is high) and toggle activity (fraction of
// patterns on which it differs from the previous pattern) from a random
// workload sample. The state before the first pattern is the all-zero
// input's.
func WorkloadProfile(n *circuit.Netlist, patterns, seed int64) (probHigh, activity []float64, err error) {
	if patterns < 1 {
		return nil, nil, fmt.Errorf("core: workload profile needs at least one pattern, got %d", patterns)
	}
	c, err := n.Compiled()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p := logic.NewPatternSet(len(n.PIs), int(patterns))
	p.RandFill(rng.Uint64)
	// ones, toggles and carry are indexed by topological position, like
	// the simulator's values. carry[p] is p's value on the pattern before
	// the current word's first one, starting from the all-zero input.
	ones := make([]int, len(n.Gates))
	toggles := make([]int, len(n.Gates))
	vals := make([]logic.Word, c.NumGates()) // one lane; PI i is position i
	carry := make([]logic.Word, len(n.Gates))
	sim.Propagate(c, vals, 1, 0, 1)
	for p, v := range vals {
		carry[p] = v & 1
	}
	for w := 0; w < p.Words(); w++ {
		for i, row := range p.Bits {
			vals[i] = row[w]
		}
		sim.Propagate(c, vals, 1, 0, 1)
		mask := p.TailMask(w)
		for q, v := range vals {
			ones[q] += logic.PopCount(v & mask)
			toggles[q] += logic.PopCount((v ^ (v<<1 | carry[q])) & mask)
			carry[q] = v >> (logic.WordBits - 1)
		}
	}
	probHigh = make([]float64, len(n.Gates))
	activity = make([]float64, len(n.Gates))
	for g := range probHigh {
		q := c.Tpos[g]
		probHigh[g] = float64(ones[q]) / float64(p.N)
		activity[g] = float64(toggles[q]) / float64(p.N)
	}
	return probHigh, activity, nil
}

// AgingAwareSTA runs the full T6 comparison on one netlist: fresh timing,
// worst-case aged timing, workload-aware aged timing using the exact aging
// model, and workload-aware timing using a learned (forest) aging
// estimator. The per-gate NBTI duty proxy is the probability the gate
// output sits low (PMOS under negative bias).
func AgingAwareSTA(n *circuit.Netlist, lib *liberty.Library, cfg AgingSTAConfig) (*AgingSTAReport, error) {
	if cfg.Patterns == 0 {
		cfg = DefaultAgingSTAConfig()
	}
	an, err := sta.New(n, lib)
	if err != nil {
		return nil, err
	}
	fresh, err := an.Run()
	if err != nil {
		return nil, err
	}

	probHigh, activity, err := WorkloadProfile(n, int64(cfg.Patterns), cfg.Seed)
	if err != nil {
		return nil, err
	}

	rep := &AgingSTAReport{Circuit: n.Name, FreshDelay: fresh.WCDelay}

	// Worst case: every gate at duty=1, activity=1.
	wcFactor := cfg.Model.Degradation(aging.WorstCase(cfg.Years, cfg.TempK, cfg.ClockHz))
	an.SetUniformDerate(wcFactor)
	wc, err := an.Run()
	if err != nil {
		return nil, err
	}
	rep.WorstCase = wc.WCDelay

	// Workload aware, exact model.
	stressOf := func(g int) aging.Stress {
		return aging.Stress{
			Years: cfg.Years, TempK: cfg.TempK, ClockHz: cfg.ClockHz,
			Duty:     1 - probHigh[g],
			Activity: clamp01(activity[g]),
		}
	}
	derates := make([]float64, len(n.Gates))
	var sumDuty, sumAct float64
	for g := range derates {
		s := stressOf(g)
		derates[g] = cfg.Model.Degradation(s)
		sumDuty += s.Duty
		sumAct += s.Activity
	}
	rep.MeanDuty = sumDuty / float64(len(derates))
	rep.MeanActivity = sumAct / float64(len(derates))
	an.Derates = derates
	wa, err := an.Run()
	if err != nil {
		return nil, err
	}
	rep.WorkloadAware = wa.WCDelay

	// Learned estimator: forest fit on sampled stress → degradation pairs.
	if cfg.MLTrainPoints < 50 {
		cfg.MLTrainPoints = 400
	}
	est, mape, err := trainAgingEstimator(cfg)
	if err != nil {
		return nil, err
	}
	rep.MLMAPE = mape
	mlDer := make([]float64, len(n.Gates))
	for g := range mlDer {
		s := stressOf(g)
		mlDer[g] = est.Predict([]float64{s.Duty, s.Activity, s.Years, s.TempK, s.ClockHz / 1e9})
		if mlDer[g] < 1 {
			mlDer[g] = 1
		}
	}
	an.Derates = mlDer
	mlT, err := an.Run()
	if err != nil {
		return nil, err
	}
	rep.MLPredicted = mlT.WCDelay

	margin := rep.WorstCase - rep.FreshDelay
	if margin > 0 {
		rep.SavingsFrac = (rep.WorstCase - rep.WorkloadAware) / margin
		rep.MLSavings = (rep.WorstCase - rep.MLPredicted) / margin
	}
	return rep, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// trainAgingEstimator fits a forest mapping (duty, activity, years, tempK,
// clockGHz) to the exact model's degradation factor and reports held-out
// MAPE — the "learned aging model" of experiment T2/T6.
func trainAgingEstimator(cfg AgingSTAConfig) (ml.Regressor, float64, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	n := cfg.MLTrainPoints
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := aging.Stress{
			Years:    rng.Float64() * 15,
			TempK:    250 + rng.Float64()*150,
			Duty:     rng.Float64(),
			Activity: rng.Float64(),
			ClockHz:  (0.5 + rng.Float64()*3.5) * 1e9,
		}
		X[i] = []float64{s.Duty, s.Activity, s.Years, s.TempK, s.ClockHz / 1e9}
		y[i] = cfg.Model.Degradation(s)
	}
	split := n * 4 / 5
	model := ml.NewForestRegressor(40, 12, cfg.Seed)
	if err := model.Fit(X[:split], y[:split]); err != nil {
		return nil, 0, fmt.Errorf("core: aging estimator: %w", err)
	}
	pred := ml.PredictAll(model, X[split:])
	return model, ml.MAPE(y[split:], pred), nil
}

// DegradationCurve tabulates the exact model's delay factor over mission
// time for a fixed workload — the T2 table/figure series.
func DegradationCurve(m aging.Model, s aging.Stress, years []float64) []struct {
	Years  float64
	DVth   float64
	Factor float64
} {
	out := make([]struct {
		Years  float64
		DVth   float64
		Factor float64
	}, len(years))
	for i, yr := range years {
		sy := s
		sy.Years = yr
		out[i].Years = yr
		out[i].DVth = m.DeltaVth(sy)
		out[i].Factor = m.DelayFactor(out[i].DVth)
	}
	return out
}
