package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/parallel"
)

// T7Row is one circuit line of the fault-simulation throughput table.
type T7Row struct {
	Circuit        string
	Faults         int
	UncollapsedN   int
	Patterns       int
	SerialTime     time.Duration
	ParallelTime   time.Duration // 64-way PPSFP, single goroutine
	ConcurrentTime time.Duration // 64-way PPSFP, fault shards across workers
	Speedup        float64       // serial / parallel
	ConcSpeedup    float64       // serial / concurrent
	CollapseSaving float64       // fraction of faults removed by collapsing
}

// T7Result holds table T7.
type T7Result struct {
	Workers int
	Rows    []T7Row
}

// t7Reps is how many times RunT7 times each engine; it keeps the fastest.
const t7Reps = 3

// RunT7 reproduces table T7: event-driven 64-way parallel-pattern fault
// simulation against the one-pattern-at-a-time baseline (same event-driven
// injection, no word parallelism), plus the multi-goroutine fault-shard
// engine and the fault-collapsing ablation. Shape: word parallelism wins,
// increasingly so on larger circuits; fault shards stack on top of it; and
// collapsing removes roughly a quarter of the fault universe. All three
// engines must agree bit-for-bit on the detected set.
func RunT7(cfg Config) (*T7Result, error) {
	suite := []*circuit.Netlist{
		circuit.RippleAdder(16),
		circuit.ArrayMultiplier(8),
		circuit.Random(32, 1200, 2),
	}
	patterns := 512
	if cfg.Quick {
		suite = []*circuit.Netlist{
			circuit.RippleAdder(8),
			circuit.Random(16, 200, 2),
		}
		patterns = 128
	}
	res := &T7Result{Workers: parallel.Workers(cfg.Workers)}
	tw := cfg.table()
	fmt.Fprintf(tw, "circuit\tfaults(all)\tfaults(collapsed)\tpatterns\tserial\tparallel\tspeedup\tconc(%d)\tspeedup\n", res.Workers)
	for _, c := range suite {
		fsim, err := fault.New(c, cfg.Options)
		if err != nil {
			return nil, err
		}
		all := fault.AllFaults(c)
		faults := fault.Collapse(c, all)
		rng := rand.New(rand.NewSource(cfg.Seed))
		p := logic.NewPatternSet(len(c.PIs), patterns)
		p.RandFill(rng.Uint64)

		// Best of t7Reps per engine, like minDuration: one timing of
		// microsecond-scale work is at the mercy of the scheduler. The
		// engines take turns within a round, so every parallel Run follows
		// a RunSerial and pays its good-circuit simulation in full.
		var rs, rp, rc *fault.Result
		var serial, par, conc time.Duration
		for r := 0; r < t7Reps; r++ {
			t0 := time.Now()
			rs = fsim.RunSerial(p, faults)
			t1 := time.Now()
			rp = fsim.Run(p, faults)
			t2 := time.Now()
			rc, err = fault.RunConcurrent(c, p, faults, cfg.Options)
			if err != nil {
				return nil, err
			}
			t3 := time.Now()
			if r == 0 || t1.Sub(t0) < serial {
				serial = t1.Sub(t0)
			}
			if r == 0 || t2.Sub(t1) < par {
				par = t2.Sub(t1)
			}
			if r == 0 || t3.Sub(t2) < conc {
				conc = t3.Sub(t2)
			}
		}
		if rs.Detected != rp.Detected || rp.Detected != rc.Detected {
			return nil, fmt.Errorf("T7: engines disagree on %s: serial %d, parallel %d, concurrent %d",
				c.Name, rs.Detected, rp.Detected, rc.Detected)
		}
		for i := range faults {
			if rp.DetectedBy[i] != rc.DetectedBy[i] {
				return nil, fmt.Errorf("T7: %s fault %d: concurrent first pattern %d != %d",
					c.Name, i, rc.DetectedBy[i], rp.DetectedBy[i])
			}
		}
		row := T7Row{
			Circuit: c.Name, Faults: len(faults), UncollapsedN: len(all),
			Patterns: patterns, SerialTime: serial, ParallelTime: par,
			ConcurrentTime: conc,
			CollapseSaving: 1 - float64(len(faults))/float64(len(all)),
		}
		if par > 0 {
			row.Speedup = float64(serial) / float64(par)
		}
		if conc > 0 {
			row.ConcSpeedup = float64(serial) / float64(conc)
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(tw, "%s\t%d\t%d (-%.0f%%)\t%d\t%v\t%v\t%.1fx\t%v\t%.1fx\n",
			c.Name, len(all), len(faults), row.CollapseSaving*100, patterns,
			serial.Round(10*time.Microsecond), par.Round(10*time.Microsecond), row.Speedup,
			conc.Round(10*time.Microsecond), row.ConcSpeedup)
	}
	return res, tw.Flush()
}
