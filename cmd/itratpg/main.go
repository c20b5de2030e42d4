// Command itratpg runs automatic test pattern generation and fault
// simulation on a .bench netlist (or a built-in generated circuit) and
// reports coverage, pattern count and the test set itself.
//
// Usage:
//
//	itratpg -bench c432.bench            # ATPG on a .bench file
//	itratpg -gen mul8                    # ATPG on a built-in circuit
//	itratpg -gen adder16 -patterns out.txt -naive
//	itratpg -gen mul8 -workers 8 -words 8    # parallel coverage sweep, 8-word drop blocks
//	itratpg -benchjson BENCH_atpg.json       # deterministic-phase trajectory
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/atpg"
	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/logic"
)

func main() {
	var (
		benchPath = flag.String("bench", "", "path to a .bench netlist")
		gen       = flag.String("gen", "", "built-in circuit: c17, adderN, mulN, aluN, cmpN, parityN, decN, gparityU.C.E, randI.G.S")
		patOut    = flag.String("patterns", "", "write generated patterns to this file")
		naive     = flag.Bool("naive", false, "use the naive backtrace (ablation)")
		seed      = flag.Int64("seed", 1, "random seed")
		noCompact = flag.Bool("nocompact", false, "skip static compaction")
		workers   = flag.Int("workers", 0, "worker count for the final coverage sweep (<= 0 selects GOMAXPROCS; results are identical for any count)")
		words     = flag.Int("words", 1, "fault-simulation lane width: pattern words packed per cone walk, one of 1/2/4/8 (results are identical for any width)")
		benchjson = flag.String("benchjson", "", "run the ATPG benchmark sweep (timed deterministic phase) and write BENCH_atpg.json-style output to this path")
		benchdir  = flag.String("benchdir", "testdata/bench", "directory of named .bench anchor netlists for -benchjson")
		quick     = flag.Bool("quick", false, "shrink the -benchjson sweep to small circuits")
		doBIST    = flag.Bool("bist", false, "run a logic BIST session instead of ATPG")
		lfsrLen   = flag.Int("lfsr", 32, "LFSR length for -bist")
		misrLen   = flag.Int("misr", 24, "MISR length for -bist")
		bistPats  = flag.Int("n", 512, "patterns for -bist")
	)
	flag.Parse()

	if fault.NormalizeWords(*words) != *words {
		fmt.Fprintf(os.Stderr, "itratpg: invalid -words %d: must be 1, 2, 4 or 8\n", *words)
		os.Exit(2)
	}

	if *benchjson != "" {
		ecfg := experiments.Default()
		ecfg.Seed = *seed
		ecfg.Quick = *quick
		ecfg.Workers = *workers
		ecfg.Words = *words
		doc, err := experiments.RunATPGBench(ecfg, *benchdir)
		if err != nil {
			fatal(err)
		}
		if err := doc.WriteJSON(*benchjson); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d rows to %s\n", len(doc.Rows), *benchjson)
		return
	}

	n, err := loadCircuit(*benchPath, *gen)
	if err != nil {
		fatal(err)
	}
	fmt.Println(n.Stats())

	if *doBIST {
		res, err := bist.Run(n, *lfsrLen, *misrLen, uint64(*seed), *bistPats)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("BIST: %d LFSR patterns, coverage %.2f%% (%d/%d faults)\n",
			res.Patterns, res.Coverage*100, res.Detected, res.TotalFaults)
		fmt.Printf("good signature: %0*x (%d-bit MISR), aliased faults: %d\n",
			(*misrLen+3)/4, res.GoodSignature, *misrLen, res.Aliased)
		return
	}

	cfg := atpg.DefaultConfig()
	cfg.Seed = *seed
	cfg.Compact = !*noCompact
	cfg.Workers = *workers
	cfg.Words = *words
	if *naive {
		cfg.Guide = atpg.GuideNaive
	}
	res, err := atpg.Run(n, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("faults: %d collapsed\n", res.TotalFaults)
	fmt.Printf("detected: %d (coverage %.2f%%), redundant: %d, aborted: %d (efficiency %.2f%%)\n",
		res.Detected, res.Coverage*100, res.Redundant, res.Aborted, res.Efficiency*100)
	fmt.Printf("patterns: %d (%d from random phase, %d deterministic detections)\n",
		res.Patterns.N, res.RandomPhase, res.DetPhase)
	fmt.Printf("deterministic phase: gen %v, drop %v\n",
		res.GenTime.Round(1e3), res.DropTime.Round(1e3))
	fmt.Printf("backtracks: %d, runtime: %v\n", res.Backtracks, res.Runtime.Round(1e6))

	if *patOut != "" {
		f, err := os.Create(*patOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		for k := 0; k < res.Patterns.N; k++ {
			fmt.Fprintln(f, logic.FormatBits(res.Patterns.Pattern(k)))
		}
		fmt.Printf("wrote %d patterns to %s\n", res.Patterns.N, *patOut)
	}
}

// loadCircuit resolves the -bench / -gen flags to a netlist.
func loadCircuit(benchPath, gen string) (*circuit.Netlist, error) {
	switch {
	case benchPath != "":
		f, err := os.Open(benchPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return circuit.ParseBench(f, benchPath)
	case gen != "":
		return circuit.FromSpec(gen)
	default:
		return nil, fmt.Errorf("need -bench <file> or -gen <name>")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "itratpg:", err)
	os.Exit(1)
}
