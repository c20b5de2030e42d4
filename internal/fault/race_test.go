package fault

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// TestSharedCompiledRace drives eight fault simulators and eight good-value
// simulators off ONE cold Compiled IR concurrently. Under -race (CI runs the
// race job over this package) it pins the immutability contract, and every
// worker must produce the serial reference result bit-for-bit.
func TestSharedCompiledRace(t *testing.T) {
	n := circuit.Random(32, 400, 21)
	faults := Collapse(n, Universe(n))
	rng := rand.New(rand.NewSource(5))
	p := logic.NewPatternSet(len(n.PIs), 192)
	p.RandFill(rng.Uint64)

	c, err := circuit.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSimulatorCompiledWords(c, 1).RunSerial(p, faults)
	refGood := goodValues(c, p)

	// Second IR, used only by the racing goroutines.
	c2, err := circuit.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fsim := NewSimulatorCompiledWords(c2, 1)
			if got := fsim.Compiled(); got != c2 {
				t.Errorf("worker %d: simulator not bound to the shared IR", w)
				return
			}
			res := fsim.Run(p, faults)
			if res.Detected != ref.Detected {
				t.Errorf("worker %d: detected %d, want %d", w, res.Detected, ref.Detected)
				return
			}
			for i := range faults {
				if res.DetectedBy[i] != ref.DetectedBy[i] {
					t.Errorf("worker %d: fault %v first=%d want %d",
						w, faults[i], res.DetectedBy[i], ref.DetectedBy[i])
					return
				}
			}
			good := goodValues(c2, p)
			for wd := range good {
				for g := range good[wd] {
					if good[wd][g] != refGood[wd][g] {
						t.Errorf("worker %d: good value mismatch at word %d gate %d", w, wd, g)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentCompilesOnce pins the compile-once acceptance criterion: the
// concurrent drivers compile a fresh netlist exactly once no matter how many
// workers they spawn, and reuse that compilation across calls.
func TestConcurrentCompilesOnce(t *testing.T) {
	n := circuit.Random(24, 300, 33)
	faults := Collapse(n, Universe(n))
	rng := rand.New(rand.NewSource(7))
	p := logic.NewPatternSet(len(n.PIs), 128)
	p.RandFill(rng.Uint64)

	before := circuit.CompileCount()
	if _, err := RunConcurrentWords(n, p, faults, 8, 1); err != nil {
		t.Fatal(err)
	}
	if d := circuit.CompileCount() - before; d != 1 {
		t.Fatalf("RunConcurrentWords with 8 workers compiled %d times, want 1", d)
	}
	if _, err := DictionaryConcurrentWords(n, p, faults, 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateTransitionsWords(n, p, TransitionUniverse(n), 8, 1); err != nil {
		t.Fatal(err)
	}
	if d := circuit.CompileCount() - before; d != 1 {
		t.Fatalf("full concurrent pipeline compiled %d times total, want 1 (cached)", d)
	}
}

// TestMultiWordSharedCompiledRace drives eight multi-word fault simulators
// of mixed lane widths (1/2/4/8) off ONE cold Compiled IR concurrently.
// Under -race it pins two contracts at once: the netlist is compiled
// exactly once no matter how many widths race on it, and every simulator —
// whatever its width — produces the serial reference result bit for bit,
// since all mutable lane scratch is per-instance.
func TestMultiWordSharedCompiledRace(t *testing.T) {
	n := circuit.Random(32, 400, 43)
	faults := Collapse(n, Universe(n))
	rng := rand.New(rand.NewSource(9))
	p := logic.NewPatternSet(len(n.PIs), 300) // ragged at every width
	p.RandFill(rng.Uint64)

	c, err := circuit.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSimulatorCompiledWords(c, 1).RunSerial(p, faults)

	before := circuit.CompileCount()
	c2, err := circuit.Compile(n) // cold IR the workers share
	if err != nil {
		t.Fatal(err)
	}
	if d := circuit.CompileCount() - before; d != 1 {
		t.Fatalf("setup compiled %d times, want 1", d)
	}

	widths := []int{1, 2, 4, 8, 8, 4, 2, 1}
	var wg sync.WaitGroup
	for w := range widths {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fsim := NewSimulatorCompiledWords(c2, widths[w])
			if got := fsim.Words(); got != widths[w] {
				t.Errorf("worker %d: width %d, want %d", w, got, widths[w])
				return
			}
			res := fsim.Run(p, faults)
			if res.Detected != ref.Detected {
				t.Errorf("worker %d (W=%d): detected %d, want %d", w, widths[w], res.Detected, ref.Detected)
				return
			}
			for i := range faults {
				if res.DetectedBy[i] != ref.DetectedBy[i] {
					t.Errorf("worker %d (W=%d): fault %v first=%d want %d",
						w, widths[w], faults[i], res.DetectedBy[i], ref.DetectedBy[i])
					return
				}
			}
			dict := fsim.Dictionary(p, faults)
			for i := range faults {
				first := -1
				for wd := 0; wd < p.Words() && first < 0; wd++ {
					var or logic.Word
					for o := range dict[i].Bits {
						or |= dict[i].Bits[o][wd]
					}
					if or != 0 {
						first = wd * logic.WordBits
					}
				}
				if (first < 0) != (ref.DetectedBy[i] < 0) {
					t.Errorf("worker %d (W=%d): fault %d dictionary/run detection disagree", w, widths[w], i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d := circuit.CompileCount() - before; d != 1 {
		t.Fatalf("racing widths compiled %d times total, want 1 (shared IR)", d)
	}
}
