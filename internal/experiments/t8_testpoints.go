package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/dft"
	"repro/internal/fault"
	"repro/internal/logic"
)

// T8Row compares random-pattern coverage before/after test-point insertion
// on one circuit.
type T8Row struct {
	Circuit    string
	Faults     int
	Before     float64
	AfterObs   float64 // observation points only
	AfterFull  float64 // observation + control points
	ExtraPins  int
	ExtraGates int
}

// T8Result holds table T8 (extension: SCOAP-guided test-point insertion).
type T8Result struct {
	Patterns int
	Rows     []T8Row
}

// RunT8 reproduces table T8: stuck-at coverage of a fixed random-pattern
// budget before and after inserting SCOAP-selected test points. Shape:
// random-pattern-resistant circuits gain substantially; already-testable
// circuits gain little.
func RunT8(cfg Config) (*T8Result, error) {
	suite := []*circuit.Netlist{
		circuit.Comparator(16),
		circuit.Comparator(32),
		circuit.ArrayMultiplier(8),
		circuit.Random(20, 300, 1),
	}
	nObs, nCtl, patterns := 8, 8, 128
	if cfg.Quick {
		suite = suite[:2]
		nObs, nCtl, patterns = 4, 4, 64
	}
	res := &T8Result{Patterns: patterns}
	cov := func(c *circuit.Netlist) (float64, int, error) {
		rng := rand.New(rand.NewSource(cfg.Seed))
		p := logic.NewPatternSet(len(c.PIs), patterns)
		p.RandFill(rng.Uint64)
		faults := fault.Universe(c)
		// Fault grading rides the concurrent engine: shards are
		// bit-identical to the serial run for any worker count.
		r, err := fault.RunConcurrent(c, p, faults, cfg.Options)
		if err != nil {
			return 0, 0, err
		}
		return r.Coverage, len(faults), nil
	}
	tw := cfg.table()
	fmt.Fprintf(tw, "circuit\tfaults\tbase cov\t+%d obs\t+%d obs +%d ctl\textra pins\textra gates\n", nObs, nObs, nCtl)
	for _, c := range suite {
		base, nf, err := cov(c)
		if err != nil {
			return nil, err
		}
		obsOnly, _, err := dft.Insert(c, nObs, 0)
		if err != nil {
			return nil, err
		}
		co, _, err := cov(obsOnly)
		if err != nil {
			return nil, err
		}
		full, plan, err := dft.Insert(c, nObs, nCtl)
		if err != nil {
			return nil, err
		}
		cf, _, err := cov(full)
		if err != nil {
			return nil, err
		}
		row := T8Row{
			Circuit: c.Name, Faults: nf, Before: base, AfterObs: co, AfterFull: cf,
			ExtraPins:  len(plan.Control) + len(plan.Observe), // control PIs + observe POs
			ExtraGates: len(plan.Control),
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(tw, "%s\t%d\t%.2f%%\t%.2f%%\t%.2f%%\t%d\t%d\n",
			c.Name, nf, base*100, co*100, cf*100, row.ExtraPins, row.ExtraGates)
	}
	return res, tw.Flush()
}
