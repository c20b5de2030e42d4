package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/diagnosis"
)

// T5Row compares diagnosis ranking on one circuit at one noise level.
type T5Row struct {
	Circuit  string
	Noise    float64
	Baseline diagnosis.Accuracy
	ML       diagnosis.Accuracy
}

// T5Result holds table T5.
type T5Result struct {
	Rows []T5Row
}

// RunT5 reproduces table T5: dictionary-based fault diagnosis with the
// classical Jaccard ranking against the learned candidate ranker, at zero
// and realistic tester-noise levels. Shape: both are near-perfect without
// noise; under noise the learned ranker holds up at least as well.
func RunT5(cfg Config) (*T5Result, error) {
	circuits := []*circuit.Netlist{
		circuit.ArrayMultiplier(4),
		circuit.RippleAdder(8),
	}
	noises := []float64{0, 0.15, 0.30}
	evalN := 80
	if cfg.Quick {
		circuits = circuits[:1]
		noises = []float64{0, 0.2}
		evalN = 30
	}
	res := &T5Result{}
	tw := cfg.table()
	fmt.Fprintf(tw, "circuit\tnoise\tbase top-1\tbase top-5\tML top-1\tML top-5\tmean rank (base→ML)\n")
	for _, c := range circuits {
		acfg := atpg.DefaultConfig()
		acfg.Seed = cfg.Seed
		acfg.Options = cfg.Options
		gen, err := atpg.Run(c, acfg)
		if err != nil {
			return nil, err
		}
		d, err := diagnosis.New(c, gen.Patterns, cfg.Options)
		if err != nil {
			return nil, err
		}
		// Disjoint train/eval fault samples among detectable faults.
		var trainSample, evalSample []int
		for i := range d.Faults {
			if d.Dict[i].FailBits() == 0 {
				continue
			}
			if i%3 == 0 && len(trainSample) < 60 {
				trainSample = append(trainSample, i)
			} else if len(evalSample) < evalN {
				evalSample = append(evalSample, i)
			}
		}
		scorer, err := core.TrainDiagnosisScorer(d, trainSample, 0.15, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, noise := range noises {
			rngA := rand.New(rand.NewSource(cfg.Seed + 11))
			base := d.Evaluate(evalSample, noise, rngA.Float64, nil)
			rngB := rand.New(rand.NewSource(cfg.Seed + 11))
			mlAcc := d.Evaluate(evalSample, noise, rngB.Float64, scorer)
			res.Rows = append(res.Rows, T5Row{Circuit: c.Name, Noise: noise, Baseline: base, ML: mlAcc})
			fmt.Fprintf(tw, "%s\t%.2f\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.2f→%.2f\n",
				c.Name, noise,
				base.Top1Rate()*100, base.Top5Rate()*100,
				mlAcc.Top1Rate()*100, mlAcc.Top5Rate()*100,
				base.MeanRank, mlAcc.MeanRank)
		}
	}
	return res, tw.Flush()
}
