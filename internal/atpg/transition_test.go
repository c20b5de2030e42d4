package atpg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// runTransitionRef is the reference flow for RunTransition: after each
// appended pair it re-simulates the whole grown pattern set against every
// live fault, so it cannot miss a pair the incremental drop skips.
func runTransitionRef(n *circuit.Netlist, cfg Config) (*TransitionResult, error) {
	if cfg.BacktrackLim == 0 {
		cfg.BacktrackLim = 10000
	}
	eng, err := New(n)
	if err != nil {
		return nil, err
	}
	eng.Guide = cfg.Guide
	eng.BacktrackLim = cfg.BacktrackLim
	rng := rand.New(rand.NewSource(cfg.Seed))
	faults := fault.TransitionUniverse(n)
	res := &TransitionResult{Circuit: n.Name, TotalFaults: len(faults)}
	nRand := 256
	if cfg.RandomBlocks > 0 {
		nRand = cfg.RandomBlocks * logic.WordBits
	}
	if cfg.SkipRandom {
		nRand = 0
	}
	patterns := logic.NewPatternSet(len(n.PIs), nRand)
	patterns.RandFill(rng.Uint64)
	detected := make([]bool, len(faults))
	if nRand > 0 {
		r, err := fault.SimulateTransitions(n, patterns, faults, fault.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		for i, d := range r.DetectedBy {
			detected[i] = d >= 0
		}
	}
	for fi, tf := range faults {
		if detected[fi] {
			continue
		}
		sa := uint8(1)
		if tf.SlowToRise {
			sa = 0
		}
		capCube, capStatus := eng.Generate(fault.Fault{Gate: tf.Gate, Pin: -1, SA: sa})
		capCube = slices.Clone(capCube) // the next Generate reuses the engine's cube
		initCube, initStatus := eng.Generate(fault.Fault{Gate: tf.Gate, Pin: -1, SA: 1 - sa})
		if capStatus == Redundant || initStatus == Redundant {
			res.Untestable++
			detected[fi] = true
			continue
		}
		if capStatus != Detected || initStatus != Detected {
			res.Aborted++
			continue
		}
		patterns.Append(fillCube(initCube, rng))
		patterns.Append(fillCube(capCube, rng))
		var live []fault.TransitionFault
		var liveIdx []int
		for i, tf2 := range faults {
			if !detected[i] {
				live = append(live, tf2)
				liveIdx = append(liveIdx, i)
			}
		}
		r, err := fault.SimulateTransitions(n, patterns, live, fault.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		for i, d := range r.DetectedBy {
			if d >= 0 {
				detected[liveIdx[i]] = true
			}
		}
	}
	final, err := fault.SimulateTransitions(n, patterns, faults, fault.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	res.Patterns = patterns
	res.Detected = final.Detected
	return res, nil
}

// TestRunTransitionMatchesReference pins the flow to the full-set
// re-simulation reference: same pattern set bit for bit, same counts. One
// random block leaves faults for the deterministic phase to append after
// random patterns; SkipRandom starts it from an empty set.
func TestRunTransitionMatchesReference(t *testing.T) {
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(4),
		circuit.ArrayMultiplier(4),
		circuit.ALUSlice(4),
	} {
		for _, blocks := range []int{16, 1, 0} {
			cfg := DefaultConfig()
			cfg.RandomBlocks, cfg.SkipRandom = blocks, blocks == 0
			cfg.Workers, cfg.Words = 3, 2
			want, err := runTransitionRef(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunTransition(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Detected != want.Detected || got.Untestable != want.Untestable || got.Aborted != want.Aborted {
				t.Errorf("%s blocks=%d: detected/untestable/aborted %d/%d/%d, reference %d/%d/%d", c.Name, blocks,
					got.Detected, got.Untestable, got.Aborted, want.Detected, want.Untestable, want.Aborted)
			}
			if got.Patterns.N != want.Patterns.N {
				t.Fatalf("%s blocks=%d: %d patterns, reference %d", c.Name, blocks, got.Patterns.N, want.Patterns.N)
			}
			for i, row := range want.Patterns.Bits {
				for w, word := range row {
					if got.Patterns.Bits[i][w] != word {
						t.Fatalf("%s blocks=%d: pattern bits differ at PI %d word %d", c.Name, blocks, i, w)
					}
				}
			}
		}
	}
}
