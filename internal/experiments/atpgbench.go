package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/parallel"
)

// ATPGBenchRow is one circuit of the ATPG benchmark trajectory, serialized
// into BENCH_atpg.json: the outcome and the timed deterministic phase of a
// deterministic-only run.
type ATPGBenchRow struct {
	Circuit    string  `json:"circuit"`
	Source     string  `json:"source"` // "bench" (named netlist file) or "generated"
	Gates      int     `json:"gates"`
	Faults     int     `json:"faults"`
	Patterns   int     `json:"patterns"`   // final compacted pattern count
	Coverage   float64 `json:"coverage"`   // detected / total
	Efficiency float64 `json:"efficiency"` // (detected + redundant) / total
	GenNs      float64 `json:"gen_ns"`     // PODEM generation + fill
	DropNs     float64 `json:"drop_ns"`    // block dropping and probes
	DetMs      float64 `json:"det_ms"`     // deterministic phase, gen + drop
}

// ATPGBench is the top-level document of BENCH_atpg.json.
type ATPGBench struct {
	Schema    string         `json:"schema"` // "itr-atpg-bench/v2"
	Generated string         `json:"generated"`
	GoVersion string         `json:"go_version"`
	Workers   int            `json:"workers"`
	Words     int            `json:"words"`
	Quick     bool           `json:"quick"`
	Rows      []ATPGBenchRow `json:"rows"`
}

// atpgBenchCase is one circuit of the sweep with its flow configuration.
type atpgBenchCase struct {
	net    *circuit.Netlist
	source string
}

// loadBenchAnchors parses every .bench netlist in dir (sorted by name) —
// the named ISCAS-style anchor tier checked in under testdata/bench/. A
// missing directory yields no anchors rather than an error, so the sweep
// still runs from build contexts without the repository root.
func loadBenchAnchors(dir string) ([]atpgBenchCase, error) {
	if dir == "" {
		return nil, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.bench"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var cases []atpgBenchCase
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		name := filepath.Base(p)
		n, perr := circuit.ParseBench(f, name[:len(name)-len(".bench")])
		f.Close()
		if perr != nil {
			return nil, fmt.Errorf("atpgbench: %s: %w", p, perr)
		}
		cases = append(cases, atpgBenchCase{net: n, source: "bench"})
	}
	return cases, nil
}

// atpgBenchCases assembles the sweep: the named anchors first, then the
// generated tiers. Quick mode keeps only small circuits for tests.
func atpgBenchCases(cfg Config, benchDir string) ([]atpgBenchCase, error) {
	cases, err := loadBenchAnchors(benchDir)
	if err != nil {
		return nil, err
	}
	if cfg.Quick {
		cases = append(cases,
			atpgBenchCase{net: circuit.ArrayMultiplier(4), source: "generated"},
			atpgBenchCase{net: circuit.GatedParity(8, 12, 8), source: "generated"},
		)
		return cases, nil
	}
	cases = append(cases,
		atpgBenchCase{net: circuit.ArrayMultiplier(16), source: "generated"},
		atpgBenchCase{net: circuit.Random(32, 500, 1), source: "generated"},
		// The 2000-gate tier: random-pattern-resistant gated parity banks
		// keep almost every fault live across almost every pattern, which is
		// the workload block dropping targets. The arithmetic and random
		// tiers above stay generation-bound.
		atpgBenchCase{net: circuit.GatedParity(32, 60, 12), source: "generated"},
	)
	return cases, nil
}

// RunATPGBench measures the deterministic ATPG phase on the anchor
// netlists under benchDir and the generated tiers, and returns the
// machine-readable document.
func RunATPGBench(cfg Config, benchDir string) (*ATPGBench, error) {
	cases, err := atpgBenchCases(cfg, benchDir)
	if err != nil {
		return nil, err
	}
	doc := &ATPGBench{
		Schema:    "itr-atpg-bench/v2",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Workers:   parallel.Workers(cfg.Workers),
		Words:     fault.NormalizeWords(cfg.Words),
		Quick:     cfg.Quick,
	}
	tw := cfg.table()
	fmt.Fprintf(tw, "circuit\tsource\tgates\tfaults\tpatterns\tcoverage\tgen\tdrop\tdet\n")
	for _, bc := range cases {
		acfg := atpg.DefaultConfig()
		acfg.Seed = cfg.Seed
		acfg.BacktrackLim = 2000
		acfg.Workers = cfg.Workers
		acfg.Words = cfg.Words
		// Deterministic-only: this benchmark times the deterministic phase
		// (the part block dropping targets), so every fault is routed
		// through PODEM instead of letting the random phase absorb 90% of
		// the universe on easy circuits.
		acfg.SkipRandom = true
		res, err := atpg.Run(bc.net, acfg)
		if err != nil {
			return nil, err
		}
		row := ATPGBenchRow{
			Circuit:    bc.net.Name,
			Source:     bc.source,
			Gates:      bc.net.NumLogicGates(),
			Faults:     res.TotalFaults,
			Patterns:   res.Patterns.N,
			Coverage:   res.Coverage,
			Efficiency: res.Efficiency,
			GenNs:      float64(res.GenTime.Nanoseconds()),
			DropNs:     float64(res.DropTime.Nanoseconds()),
			DetMs:      float64(res.GenTime+res.DropTime) / float64(time.Millisecond),
		}
		doc.Rows = append(doc.Rows, row)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.2f%%\t%.2fms\t%.2fms\t%.2fms\n",
			row.Circuit, row.Source, row.Gates, row.Faults, row.Patterns, row.Coverage*100,
			row.GenNs/1e6, row.DropNs/1e6, row.DetMs)
	}
	return doc, tw.Flush()
}

// WriteJSON writes the benchmark document to path, indented for diffable
// version-controlled trajectory files.
func (b *ATPGBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
