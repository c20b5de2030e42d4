package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// T9Row compares transition-fault testing on one circuit.
type T9Row struct {
	Circuit    string
	Faults     int
	RandomCov  float64 // 256 random patterns as launch/capture pairs
	ATPGCov    float64
	Untestable int
	Aborted    int
	Patterns   int
}

// T9Result holds table T9 (extension: transition/delay faults).
type T9Result struct {
	Rows []T9Row
}

// RunT9 reproduces table T9: transition-fault (gross-delay) coverage of
// random pattern pairs vs the deterministic two-pattern ATPG flow. Shape:
// transition coverage trails stuck-at coverage under the same budget (the
// extra initialization condition), and the deterministic flow closes most
// of the gap, with a small genuinely untestable remainder.
func RunT9(cfg Config) (*T9Result, error) {
	suite := []*circuit.Netlist{
		circuit.RippleAdder(16),
		circuit.ArrayMultiplier(8),
		circuit.ALUSlice(8),
		circuit.Comparator(16),
	}
	nRandom := 256
	if cfg.Quick {
		suite = []*circuit.Netlist{
			circuit.RippleAdder(8),
			circuit.ArrayMultiplier(4),
		}
		nRandom = 64
	}
	res := &T9Result{}
	tw := cfg.table()
	fmt.Fprintf(tw, "circuit\tTDF faults\trandom cov\tATPG cov\tuntestable\taborted\tpatterns\n")
	for _, c := range suite {
		faults := fault.TransitionUniverse(c)
		rng := rand.New(rand.NewSource(cfg.Seed))
		p := logic.NewPatternSet(len(c.PIs), nRandom)
		p.RandFill(rng.Uint64)
		rr, err := fault.SimulateTransitions(c, p, faults, cfg.Options)
		if err != nil {
			return nil, err
		}
		acfg := atpg.DefaultConfig()
		acfg.Seed = cfg.Seed
		acfg.BacktrackLim = 2000
		acfg.Options = cfg.Options
		ar, err := atpg.RunTransition(c, acfg)
		if err != nil {
			return nil, err
		}
		row := T9Row{
			Circuit: c.Name, Faults: len(faults),
			RandomCov: rr.Coverage, ATPGCov: ar.Coverage,
			Untestable: ar.Untestable, Aborted: ar.Aborted,
			Patterns: ar.Patterns.N,
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(tw, "%s\t%d\t%.2f%%\t%.2f%%\t%d\t%d\t%d\n",
			c.Name, row.Faults, row.RandomCov*100, row.ATPGCov*100,
			row.Untestable, row.Aborted, row.Patterns)
	}
	return res, tw.Flush()
}
