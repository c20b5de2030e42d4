// Package experiments implements the reproduction harness: one function per
// table (T1–T10) and figure (F1–F6) of the experiment index in DESIGN.md.
// Each experiment prints its rows/series to the configured writer and
// returns structured results so tests can assert the qualitative shape the
// survey reports. cmd/itrbench and the root-level benchmarks both drive
// this package.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"text/tabwriter"

	"repro/internal/fault"
	"repro/internal/liberty"
	"repro/internal/parallel"
	"repro/internal/spice"
)

// Config controls experiment scale and output.
type Config struct {
	// Quick shrinks workloads for unit tests and smoke runs.
	Quick bool
	Seed  int64
	W     io.Writer
	// Options sets the lane width of the ATPG, diagnosis, fault-simulation
	// and transition experiments. Its Workers also bounds the other
	// parallel sections (library characterization, Monte Carlo sweeps,
	// RunAll); every randomized work item draws from a seed-split RNG
	// stream, so results are bit-identical for any value.
	fault.Options
}

// Default returns the full-scale configuration printing to stdout.
func Default() Config { return Config{Seed: 1, W: os.Stdout} }

func (c Config) out() io.Writer {
	if c.W == nil {
		return os.Stdout
	}
	return c.W
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.out(), format, args...)
}

func (c Config) table() *tabwriter.Writer {
	return tabwriter.NewWriter(c.out(), 2, 4, 2, ' ', 0)
}

// Shared characterized libraries are expensive; build them once per corner.
// The cache is singleflight-style: concurrent experiments asking for the
// same corner block only on that corner's sync.Once — they never serialize
// on a global lock while a characterization is in flight, and distinct
// corners characterize concurrently.
var libCache sync.Map // corner key → *libEntry

type libEntry struct {
	once sync.Once
	lib  *liberty.Library
	err  error
}

// library returns a characterized library at the given temperature and
// aging shift, cached across experiments. Quick mode uses the coarse grid.
// The first caller for a corner characterizes it (with its Workers setting;
// the result is worker-count independent) and all others share the result.
func library(cfg Config, tempK, dVth float64) (*liberty.Library, error) {
	key := fmt.Sprintf("%v-%g-%g", cfg.Quick, tempK, dVth)
	e, _ := libCache.LoadOrStore(key, &libEntry{})
	entry := e.(*libEntry)
	entry.once.Do(func() {
		p := spice.Default(tempK)
		p.DVthN += dVth
		p.DVthP += dVth
		grid := liberty.DefaultGrid()
		if cfg.Quick {
			grid = liberty.CoarseGrid()
		}
		entry.lib, entry.err = liberty.Characterize(key, liberty.AllCells(), p, grid, cfg.Workers)
	})
	return entry.lib, entry.err
}

// step is one entry of the experiment table: the identifier Run accepts,
// the report header, and the experiment itself.
type step struct {
	id   string
	name string
	run  func(Config) error
}

// RunAll executes every experiment, fanning them out across cfg.Workers
// goroutines. Each experiment writes to a private buffer; buffers are
// emitted to cfg.W in experiment-index order as soon as the contiguous
// prefix completes, so the combined report reads exactly like the serial
// run. On error the first failing experiment (by index, among those that
// ran) is reported and unstarted experiments are skipped.
func RunAll(cfg Config) error {
	return runOrdered(cfg, allSteps())
}

// runOrdered is the RunAll engine: parallel execution, serial-order output.
func runOrdered(cfg Config, steps []step) error {
	out := cfg.out()
	bufs := make([]bytes.Buffer, len(steps))
	var (
		mu   sync.Mutex
		next int
		done = make([]bool, len(steps))
	)
	flush := func() { // called with mu held
		for next < len(steps) && done[next] {
			io.Copy(out, &bufs[next]) //nolint:errcheck — best-effort report streaming
			next++
		}
	}
	err := parallel.For(cfg.Workers, len(steps), func(i int) error {
		sub := cfg
		sub.W = &bufs[i]
		fmt.Fprintf(&bufs[i], "\n================ %s ================\n", steps[i].name)
		err := steps[i].run(sub)
		mu.Lock()
		done[i] = true
		flush()
		mu.Unlock()
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", steps[i].name, err)
		}
		return nil
	})
	return err
}

func allSteps() []step {
	return []step{
		{"T1", "T1 ML cell characterization", func(c Config) error { _, err := RunT1(c); return err }},
		{"T2", "T2 aging degradation model", func(c Config) error { _, err := RunT2(c); return err }},
		{"T3", "T3 wafer-map classification", func(c Config) error { _, err := RunT3(c); return err }},
		{"F1", "F1 HDC dimension sweep", func(c Config) error { _, err := RunF1(c); return err }},
		{"F2", "F2 coverage vs patterns", func(c Config) error { _, err := RunF2(c); return err }},
		{"T4", "T4 ATPG summary", func(c Config) error { _, err := RunT4(c); return err }},
		{"T5", "T5 diagnosis ranking", func(c Config) error { _, err := RunT5(c); return err }},
		{"F3", "F3 adaptive-test tradeoff", func(c Config) error { _, err := RunF3(c); return err }},
		{"T6", "T6 aging-aware STA", func(c Config) error { _, err := RunT6(c); return err }},
		{"F4", "F4 variation Monte Carlo", func(c Config) error { _, err := RunF4(c); return err }},
		{"F5", "F5 learning convergence", func(c Config) error { _, err := RunF5(c); return err }},
		{"T7", "T7 fault-simulation speedup", func(c Config) error { _, err := RunT7(c); return err }},
		{"T8", "T8 test-point insertion (extension)", func(c Config) error { _, err := RunT8(c); return err }},
		{"T9", "T9 transition-fault ATPG (extension)", func(c Config) error { _, err := RunT9(c); return err }},
		{"T10", "T10 temperature corners (extension)", func(c Config) error { _, err := RunT10(c); return err }},
		{"F6", "F6 logic BIST (extension)", func(c Config) error { _, err := RunF6(c); return err }},
	}
}

// Names lists the experiment identifiers accepted by Run, in RunAll order.
func Names() []string {
	var names []string
	for _, s := range allSteps() {
		names = append(names, s.id)
	}
	return names
}

// Run executes one experiment by identifier.
func Run(id string, cfg Config) error {
	for _, s := range allSteps() {
		if s.id == id {
			return s.run(cfg)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, Names())
}
