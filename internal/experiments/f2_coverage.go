package experiments

import (
	"fmt"

	"repro/internal/atpg"
	"repro/internal/circuit"
)

// F2Result holds the coverage-vs-pattern-count curves (figure F2).
type F2Result struct {
	Circuit string
	Random  []atpg.CoveragePoint
	ATPG    []atpg.CoveragePoint
}

// RunF2 reproduces figure F2: stuck-at coverage as a function of applied
// pattern count, random patterns vs the compacted ATPG set. Shape: the
// random curve rises fast then plateaus below the deterministic set, which
// reaches (near-)complete coverage with far fewer patterns.
func RunF2(cfg Config) (*F2Result, error) {
	c := circuit.ArrayMultiplier(8)
	if cfg.Quick {
		c = circuit.ArrayMultiplier(4)
	}
	nRandom := 512
	rnd, err := atpg.RandomOnly(c, nRandom, cfg.Seed, cfg.Options)
	if err != nil {
		return nil, err
	}
	acfg := atpg.DefaultConfig()
	acfg.Seed = cfg.Seed
	acfg.Options = cfg.Options
	det, err := atpg.Run(c, acfg)
	if err != nil {
		return nil, err
	}
	res := &F2Result{Circuit: c.Name, Random: rnd.CoverageAt, ATPG: det.CoverageAt}

	cfg.printf("circuit %s: %d collapsed faults\n", c.Name, rnd.TotalFaults)
	tw := cfg.table()
	fmt.Fprintf(tw, "patterns\trandom coverage\tATPG coverage\n")
	checkpoints := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	covAt := func(curve []atpg.CoveragePoint, n int) float64 {
		if len(curve) == 0 {
			return 0
		}
		if n > len(curve) {
			n = len(curve)
		}
		return curve[n-1].Coverage
	}
	for _, n := range checkpoints {
		fmt.Fprintf(tw, "%d\t%.2f%%\t%.2f%%\n",
			n, covAt(res.Random, n)*100, covAt(res.ATPG, n)*100)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	cfg.printf("final: random %.2f%% after %d patterns; ATPG %.2f%% with %d patterns (%d redundant, %d aborted)\n",
		rnd.Coverage*100, nRandom, det.Coverage*100, det.Patterns.N, det.Redundant, det.Aborted)
	return res, nil
}
