// Command itrbench regenerates the experiment tables and figures of the
// reproduction (see DESIGN.md for the experiment index).
//
// Usage:
//
//	itrbench -all            # run every experiment at full scale
//	itrbench -exp T1         # run one experiment (T1..T7, F1..F5)
//	itrbench -exp T3 -quick  # reduced workload for a fast smoke run
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
)

func main() {
	var (
		all       = flag.Bool("all", false, "run every experiment")
		exp       = flag.String("exp", "", "experiment id (T1..T7, F1..F5)")
		quick     = flag.Bool("quick", false, "reduced workloads")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", runtime.NumCPU(), "parallel workers (results are identical for any count)")
		words     = flag.Int("words", 1, "fault-simulation lane width: pattern words packed per cone walk, one of 1/2/4/8 (results are identical for any width)")
		benchjson = flag.String("benchjson", "", "run the fault-simulation benchmark sweep and write machine-readable timings to this file (e.g. BENCH_faultsim.json)")
		benchdir  = flag.String("benchdir", "testdata/bench", "directory of named .bench anchor netlists for -benchjson")
	)
	flag.Parse()

	opts := fault.Options{Workers: *workers, Words: *words}
	if opts.Lanes() != *words {
		fmt.Fprintf(os.Stderr, "itrbench: invalid -words %d: must be 1, 2, 4 or 8\n", *words)
		os.Exit(2)
	}

	cfg := experiments.Default()
	cfg.Quick = *quick
	cfg.Seed = *seed
	cfg.Options = opts

	start := time.Now()
	switch {
	case *benchjson != "":
		doc, err := experiments.RunFaultSimBench(cfg, *benchdir)
		if err != nil {
			fatal(err)
		}
		if err := doc.WriteJSON(*benchjson); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *benchjson)
	case *all:
		if err := experiments.RunAll(cfg); err != nil {
			fatal(err)
		}
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			fmt.Printf("\n================ %s ================\n", id)
			if err := experiments.Run(id, cfg); err != nil {
				fatal(err)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "usage: itrbench -all | -exp <id>[,<id>...] | -benchjson FILE [-quick] [-seed N] [-workers N] [-words N]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(experiments.Names(), " "))
		os.Exit(2)
	}
	fmt.Printf("\ntotal runtime: %v\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "itrbench:", err)
	os.Exit(1)
}
