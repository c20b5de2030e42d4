package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/parallel"
)

// FaultSimBenchRow is one circuit size of the fault-simulation benchmark,
// serialized into BENCH_faultsim.json so the performance trajectory of the
// engine is tracked across PRs in machine-readable form.
type FaultSimBenchRow struct {
	Circuit      string  `json:"circuit"`
	Source       string  `json:"source"`                  // "bench" (named netlist file) or "generated"
	Gates        int     `json:"gates"`                   // logic gates (excluding PIs)
	Faults       int     `json:"faults"`                  // collapsed fault universe
	Patterns     int     `json:"patterns"`                // random patterns simulated
	Words        int     `json:"words"`                   // pattern words packed per cone walk
	CompileNs    float64 `json:"compile_ns"`              // circuit.Compile best-of-N (CSR IR build, excl. levelization)
	PPSFPMs      float64 `json:"ppsfp_ms"`                // event-driven multi-word run, one goroutine
	ConcurrentMs float64 `json:"concurrent_ms"`           // fault shards across workers
	DictMs       float64 `json:"dictionary_ms,omitempty"` // full-signature dictionary (word-sharded across workers); omitted above dictMaxGates where the signature matrix no longer fits
	SerialMs     float64 `json:"serial_ms"`               // one-pattern baseline
	Speedup      float64 `json:"speedup"`                 // serial / ppsfp
	Coverage     float64 `json:"coverage"`
	BitIdentical bool    `json:"bit_identical"`           // DetectedBy of PPSFP == serial baseline == concurrent (a genuine mismatch aborts the sweep)
	MPatFaultsPS float64 `json:"mpattern_faults_per_sec"` // faults × patterns / ppsfp time, in millions
}

// FaultSimBench is the top-level document of BENCH_faultsim.json.
type FaultSimBench struct {
	Schema    string             `json:"schema"` // "itr-faultsim-bench/v1"
	Generated string             `json:"generated"`
	GoVersion string             `json:"go_version"`
	Workers   int                `json:"workers"`
	Quick     bool               `json:"quick"`
	Rows      []FaultSimBenchRow `json:"rows"`
}

// faultSimBenchSizes returns the generated-circuit sizes of the sweep.
func faultSimBenchSizes(quick bool) ([]int, int) {
	if quick {
		return []int{200, 500}, 64
	}
	return []int{500, 2000, 8000, 32000, 100000}, 256
}

// dictMaxGates bounds the circuit size on which the dictionary build is
// measured: the signature matrix is faults × POs × words (hundreds of GB at
// 100k gates), so the dictionary workload — diagnosis — only exists at
// dictionary-feasible sizes and larger rows omit the column.
const dictMaxGates = 8000

// minDuration times fn reps times and returns the fastest run, the standard
// best-of-N benchmark discipline.
func minDuration(reps int, fn func()) time.Duration {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		if r == 0 || d < best {
			best = d
		}
	}
	return best
}

// RunFaultSimBench measures the fault-simulation engine on the named .bench
// anchor netlists under benchDir (sorted by name, mirroring BENCH_atpg.json)
// followed by generated circuits of increasing size, and returns the
// machine-readable benchmark document. Every row carries the one-pattern
// serial baseline, which doubles as the correctness oracle: the PPSFP and
// concurrent DetectedBy must match it bit for bit or the sweep aborts.
func RunFaultSimBench(cfg Config, benchDir string) (*FaultSimBench, error) {
	sizes, patterns := faultSimBenchSizes(cfg.Quick)
	doc := &FaultSimBench{
		Schema:    "itr-faultsim-bench/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Workers:   parallel.Workers(cfg.Workers),
		Quick:     cfg.Quick,
	}
	cases, err := loadBenchAnchors(benchDir)
	if err != nil {
		return nil, err
	}
	for _, gates := range sizes {
		cases = append(cases, atpgBenchCase{net: circuit.Random(64, gates, 3), source: "generated"})
	}
	tw := cfg.table()
	fmt.Fprintf(tw, "circuit\tgates\tfaults\tpatterns\twords\tppsfp\tconc(%d)\tdict\tserial\tspeedup\tMpat·faults/s\n", doc.Workers)
	for _, bc := range cases {
		c := bc.net
		c.TopoOrder() // levelize once so compileDur isolates the CSR-IR build
		compileDur := minDuration(5, func() {
			if _, err := circuit.Compile(c); err != nil {
				panic(err) // Random netlists always compile; see Compile's contract
			}
		})
		faults := fault.Universe(c)
		rng := rand.New(rand.NewSource(cfg.Seed))
		p := logic.NewPatternSet(len(c.PIs), patterns)
		p.RandFill(rng.Uint64)
		fsim, err := fault.New(c, cfg.Options)
		if err != nil {
			return nil, err
		}
		var rp *fault.Result
		fsim.Run(p, faults) // warm run: fault the allocator, not the timed region
		ppsfp := minDuration(3, func() { rp = fsim.Run(p, faults) })
		var cerr error
		var rc *fault.Result
		conc := minDuration(3, func() { rc, cerr = fault.RunConcurrent(c, p, faults, cfg.Options) })
		if cerr != nil {
			return nil, cerr
		}
		for i := range faults {
			if rp.DetectedBy[i] != rc.DetectedBy[i] {
				return nil, fmt.Errorf("benchjson: %s fault %d: concurrent DetectedBy %d != %d",
					c.Name, i, rc.DetectedBy[i], rp.DetectedBy[i])
			}
		}
		row := FaultSimBenchRow{
			Circuit: c.Name, Source: bc.source, Gates: c.NumLogicGates(), Faults: len(faults),
			Patterns:     patterns,
			Words:        fsim.Words(),
			CompileNs:    float64(compileDur.Nanoseconds()),
			PPSFPMs:      float64(ppsfp) / float64(time.Millisecond),
			ConcurrentMs: float64(conc) / float64(time.Millisecond),
			Coverage:     rp.Coverage,
			MPatFaultsPS: float64(len(faults)) * float64(patterns) / ppsfp.Seconds() / 1e6,
		}
		if row.Gates <= dictMaxGates {
			dict := minDuration(2, func() {
				if _, err := fault.DictionaryConcurrent(c, p, faults, cfg.Options); err != nil {
					cerr = err
				}
			})
			if cerr != nil {
				return nil, cerr
			}
			row.DictMs = float64(dict) / float64(time.Millisecond)
		}
		var rs *fault.Result
		serial := minDuration(1, func() { rs = fsim.RunSerial(p, faults) })
		row.SerialMs = float64(serial) / float64(time.Millisecond)
		row.Speedup = row.SerialMs / row.PPSFPMs
		row.BitIdentical = true
		for i := range faults {
			if rp.DetectedBy[i] != rs.DetectedBy[i] {
				row.BitIdentical = false
				return nil, fmt.Errorf("benchjson: %s fault %d: PPSFP DetectedBy %d != serial %d",
					c.Name, i, rp.DetectedBy[i], rs.DetectedBy[i])
			}
		}
		doc.Rows = append(doc.Rows, row)
		dictCell := "-"
		if row.DictMs > 0 {
			dictCell = fmt.Sprintf("%.2fms", row.DictMs)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.2fms\t%.2fms\t%s\t%.2fms\t%.1fx\t%.1f\n",
			c.Name, row.Gates, row.Faults, row.Patterns, row.Words, row.PPSFPMs, row.ConcurrentMs,
			dictCell, row.SerialMs, row.Speedup, row.MPatFaultsPS)
	}
	return doc, tw.Flush()
}

// WriteJSON writes the benchmark document to path, indented for diffable
// version-controlled trajectory files.
func (b *FaultSimBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
