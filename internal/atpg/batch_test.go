package atpg

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// samePatterns reports whether two pattern sets are bit-identical.
func samePatterns(a, b *logic.PatternSet) bool {
	if a.N != b.N || a.Inputs != b.Inputs {
		return false
	}
	for i := range a.Bits {
		for w := range a.Bits[i] {
			if a.Bits[i][w]&a.TailMask(w) != b.Bits[i][w]&b.TailMask(w) {
				return false
			}
		}
	}
	return true
}

// requireIdentical fails the test unless got reproduces want in every field
// the flow pins: the pattern bits themselves and all counters.
func requireIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !samePatterns(got.Patterns, want.Patterns) {
		t.Fatalf("%s: pattern set differs (%d patterns vs %d)", label, got.Patterns.N, want.Patterns.N)
	}
	if got.Detected != want.Detected || got.Redundant != want.Redundant ||
		got.Aborted != want.Aborted || got.Backtracks != want.Backtracks ||
		got.RandomPhase != want.RandomPhase || got.DetPhase != want.DetPhase ||
		got.Coverage != want.Coverage || got.Efficiency != want.Efficiency {
		t.Fatalf("%s: counters differ:\n got  det=%d red=%d ab=%d bt=%d rand=%d detph=%d cov=%v eff=%v\n want det=%d red=%d ab=%d bt=%d rand=%d detph=%d cov=%v eff=%v",
			label,
			got.Detected, got.Redundant, got.Aborted, got.Backtracks, got.RandomPhase, got.DetPhase, got.Coverage, got.Efficiency,
			want.Detected, want.Redundant, want.Aborted, want.Backtracks, want.RandomPhase, want.DetPhase, want.Coverage, want.Efficiency)
	}
	if len(got.CoverageAt) != len(want.CoverageAt) {
		t.Fatalf("%s: coverage curve length %d, want %d", label, len(got.CoverageAt), len(want.CoverageAt))
	}
	for k := range got.CoverageAt {
		if got.CoverageAt[k] != want.CoverageAt[k] {
			t.Fatalf("%s: coverage curve diverges at pattern %d", label, k+1)
		}
	}
}

// runSerial is the reference flow the production deterministic phase is
// checked against: one PODEM call and one single-pattern live-list drop per
// remaining fault, in fault order, then compaction one pattern at a time.
// It shares setup, the random phase and the final accounting with Run, but
// none of the block batching, staging or probing.
func runSerial(n *circuit.Netlist, cfg Config) (*Result, error) {
	f, err := newFlow(n, cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.SkipRandom {
		f.randomPhase()
	}
	eng := NewShared(f.comp, f.scoap)
	eng.Guide = f.cfg.Guide
	eng.BacktrackLim = f.cfg.BacktrackLim
	one := logic.NewPatternSet(len(f.net.PIs), 0)
	for fi := range f.faults {
		if f.detected[fi] {
			continue
		}
		t0 := time.Now()
		cube, status := eng.Generate(f.faults[fi])
		switch status {
		case Redundant:
			f.res.GenTime += time.Since(t0)
			f.res.Redundant++
			f.detected[fi] = true // drop from live lists; excluded from coverage
			continue
		case Aborted:
			f.res.GenTime += time.Since(t0)
			f.res.Aborted++
			continue
		}
		rng := rand.New(rand.NewSource(f.fillSeed(fi)))
		bits := fillCube(cube, rng, f.cfg.FillRandom)
		f.res.GenTime += time.Since(t0)
		t1 := time.Now()
		one.Reset()
		one.Append(bits)
		live, liveIdx := f.liveFaults()
		newDet := f.fsim.RunInto(one, live, f.detBy, f.dropBuf)
		for i, d := range f.detBy {
			if d >= 0 {
				f.detected[liveIdx[i]] = true
			}
		}
		f.res.DropTime += time.Since(t1)
		if newDet > 0 {
			f.patterns.Append(bits)
			f.res.DetPhase += newDet
		}
	}
	f.res.Backtracks = eng.Backtracks
	if cfg.Compact && f.patterns.N > 1 {
		f.patterns = f.compact(1)
	}
	return f.finish()
}

// TestBatchedBitIdenticalGrid pins the determinism contract of the batched
// flow: for every workers × words combination in the supported grid,
// atpg.Run produces exactly the pattern set and statistics of the serial
// reference flow. Both the random+deterministic flow and the harder
// deterministic-only flow (every fault goes through PODEM, so probes,
// flushes, redundancies and aborts all occur) are pinned.
func TestBatchedBitIdenticalGrid(t *testing.T) {
	for _, skipRandom := range []bool{false, true} {
		n := circuit.Random(16, 250, 77)
		base := DefaultConfig()
		base.BacktrackLim = 50 // low limit so Aborted paths are exercised
		base.SkipRandom = skipRandom
		want, err := runSerial(n, base)
		if err != nil {
			t.Fatal(err)
		}
		if want.Detected == 0 || want.Patterns.N == 0 {
			t.Fatalf("degenerate reference: detected=%d patterns=%d", want.Detected, want.Patterns.N)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, words := range []int{1, 2, 4, 8} {
				cfg := base
				cfg.Workers = workers
				cfg.Words = words
				got, err := Run(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("skipRandom=%v workers=%d words=%d", skipRandom, workers, words), got, want)
			}
		}
	}
}

// loadAnchors parses the named .bench anchor netlists under
// testdata/bench at the repository root.
func loadAnchors(t testing.TB) []*circuit.Netlist {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "bench", "*.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("found %d .bench anchors, want at least 3", len(paths))
	}
	var nets []*circuit.Netlist
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		n, err := circuit.ParseBench(f, strings.TrimSuffix(filepath.Base(p), ".bench"))
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		nets = append(nets, n)
	}
	return nets
}

// TestSerialOracleBenchCircuits cross-checks Run against the serial
// reference on the circuits of the ATPG benchmark and table T4's quick
// tier: the .bench anchors, mul4 and a small gated-parity bank, with and
// without the random phase, across workers × words.
func TestSerialOracleBenchCircuits(t *testing.T) {
	nets := append(loadAnchors(t), circuit.ArrayMultiplier(4), circuit.GatedParity(8, 12, 8))
	for _, n := range nets {
		for _, skipRandom := range []bool{false, true} {
			base := DefaultConfig()
			base.BacktrackLim = 2000
			base.SkipRandom = skipRandom
			want, err := runSerial(n, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				for _, words := range []int{1, 8} {
					cfg := base
					cfg.Workers = workers
					cfg.Words = words
					got, err := Run(n, cfg)
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, fmt.Sprintf("%s skipRandom=%v workers=%d words=%d", n.Name, skipRandom, workers, words), got, want)
				}
			}
		}
	}
}

// TestBatchedSharedIRRace runs eight full ATPG flows concurrently on one
// netlist: the compiled IR must be built exactly once (shared by every
// flow's engines and simulators), and every flow must return the identical
// result. CI runs this package under -race.
func TestBatchedSharedIRRace(t *testing.T) {
	n := circuit.Random(12, 180, 91)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Words = 2
	want, err := Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}

	n2 := circuit.Random(12, 180, 91) // fresh netlist: nothing compiled yet
	before := circuit.CompileCount()
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = Run(n2, cfg)
		}(w)
	}
	wg.Wait()
	if d := circuit.CompileCount() - before; d != 1 {
		t.Fatalf("8 concurrent flows compiled %d times, want 1 (shared IR)", d)
	}
	for w := 0; w < 8; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		requireIdentical(t, fmt.Sprintf("concurrent flow %d", w), results[w], want)
	}
}

// TestDeterministicTimingSplit sanity-checks the instrumentation the
// benchmark layer publishes: a deterministic-only run spends measurable
// time in both generation and dropping, in the batched flow and in the
// serial reference alike.
func TestDeterministicTimingSplit(t *testing.T) {
	n := circuit.Random(14, 200, 5)
	cfg := DefaultConfig()
	cfg.SkipRandom = true
	for name, run := range map[string]func(*circuit.Netlist, Config) (*Result, error){"batched": Run, "serial": runSerial} {
		res, err := run(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.GenTime <= 0 {
			t.Errorf("%s: GenTime = %v, want > 0", name, res.GenTime)
		}
		if res.DropTime <= 0 {
			t.Errorf("%s: DropTime = %v, want > 0", name, res.DropTime)
		}
	}
}

// The flow benchmarks use a small gated-parity bank — the random-pattern-
// resistant shape whose deterministic phase block dropping targets — sized
// so bench-smoke stays fast. BenchmarkATPGFlowSerial runs the same flow on
// the serial reference: the batching ablation.
func BenchmarkATPGFlow(b *testing.B) {
	benchmarkFlow(b, Run, 0, 0)
}

func BenchmarkATPGFlowSerial(b *testing.B) {
	benchmarkFlow(b, runSerial, 0, 0)
}

func BenchmarkATPGFlowParallel(b *testing.B) {
	benchmarkFlow(b, Run, 8, 8)
}

func benchmarkFlow(b *testing.B, run func(*circuit.Netlist, Config) (*Result, error), workers, words int) {
	n := circuit.GatedParity(8, 12, 8)
	cfg := DefaultConfig()
	cfg.SkipRandom = true
	cfg.Workers = workers
	cfg.Words = words
	if _, err := run(n, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(n, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
