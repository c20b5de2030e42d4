package experiments

import (
	"fmt"

	"repro/internal/atpg"
	"repro/internal/circuit"
)

// T4Row is one circuit line of the ATPG summary table.
type T4Row struct {
	Result      *atpg.Result
	NaivePats   int
	NaiveAborts int
	NaiveBack   int64
}

// T4Result holds table T4.
type T4Result struct {
	Rows []T4Row
}

// RunT4 reproduces table T4: full ATPG results per benchmark circuit, with
// the SCOAP-guided backtrace ablated against the naive first-X heuristic
// (DESIGN.md design-choice ablation). A 2000-backtrack abort limit bounds
// the redundancy proofs, as in production ATPG; aborts are reported.
// Random(20,300) is included deliberately: random reconvergent logic is
// rich in redundant faults and stresses the redundancy-proof path.
func RunT4(cfg Config) (*T4Result, error) {
	suite := []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(16),
		circuit.ArrayMultiplier(4),
		circuit.ArrayMultiplier(8),
		circuit.ALUSlice(16),
		circuit.Comparator(16),
		circuit.ParityTree(16),
		circuit.Random(20, 300, 1),
		// The 2000-gate random-pattern-resistant tier: parity chains behind
		// wide enables defeat the random phase, so nearly the whole fault
		// universe reaches the deterministic phase — the case batched fault
		// dropping exists for.
		circuit.GatedParity(32, 60, 12),
	}
	if cfg.Quick {
		suite = []*circuit.Netlist{
			circuit.MustC17(),
			circuit.RippleAdder(8),
			circuit.ArrayMultiplier(4),
		}
	}
	res := &T4Result{}
	tw := cfg.table()
	fmt.Fprintf(tw, "circuit\tgates\tfaults\tcoverage\teff.\tpatterns\taborts\tbacktracks\truntime\tdet\tpat(naive)\tabort(naive)\n")
	for _, c := range suite {
		guided := atpg.DefaultConfig()
		guided.Seed = cfg.Seed
		guided.BacktrackLim = 2000
		guided.Workers = cfg.Workers
		guided.Words = cfg.Words
		rg, err := atpg.Run(c, guided)
		if err != nil {
			return nil, err
		}
		naive := guided
		naive.Guide = atpg.GuideNaive
		rn, err := atpg.Run(c, naive)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, T4Row{
			Result: rg, NaivePats: rn.Patterns.N, NaiveAborts: rn.Aborted, NaiveBack: rn.Backtracks,
		})
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f%%\t%.2f%%\t%d\t%d\t%d\t%v\t%v\t%d\t%d\n",
			c.Name, c.NumLogicGates(), rg.TotalFaults, rg.Coverage*100, rg.Efficiency*100,
			rg.Patterns.N, rg.Aborted, rg.Backtracks, rg.Runtime.Round(1e6),
			(rg.GenTime + rg.DropTime).Round(1e6),
			rn.Patterns.N, rn.Aborted)
	}
	return res, tw.Flush()
}
