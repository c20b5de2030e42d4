package atpg

import (
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// TransitionResult reports the two-pattern ATPG flow.
type TransitionResult struct {
	Circuit     string
	TotalFaults int
	Detected    int
	Untestable  int // both launch and capture proven impossible
	Aborted     int
	Patterns    *logic.PatternSet
	Coverage    float64
	Runtime     time.Duration
}

// RunTransition generates a two-pattern test set for transition faults:
// a random phase (consecutive random patterns form launch/capture pairs)
// followed by a deterministic phase that, for each remaining fault,
// generates the capture pattern with PODEM (stuck-at at the slow value)
// and an initialization pattern justifying the pre-transition value, and
// appends them as a consecutive pair. Dropping after each pair simulates
// only the last three patterns, the only ones that form new pairs.
//
// It reads cfg's Seed, RandomBlocks, SkipRandom, BacktrackLim, Guide and
// Options. It ignores RandomStall and Compact: the random phase keeps all
// RandomBlocks×64 patterns and the set is never compacted (ROADMAP item
// "Transition tests as short as stuck-at tests").
func RunTransition(n *circuit.Netlist, cfg Config) (*TransitionResult, error) {
	start := time.Now()
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

	// Phase 1: random patterns (pairs arise from adjacency).
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
		r, err := fault.SimulateTransitions(n, patterns, faults, cfg.Options)
		if err != nil {
			return nil, err
		}
		for i, d := range r.DetectedBy {
			if d >= 0 {
				detected[i] = true
			}
		}
	}

	// Phase 2: deterministic pairs for the remaining faults.
	capBuf := make([]logic.V, 0, len(n.PIs))
	for fi, tf := range faults {
		if detected[fi] {
			continue
		}
		// Capture pattern: detect stuck-at(old value) at the site.
		sa := uint8(1)
		if tf.SlowToRise {
			sa = 0
		}
		capCube, capStatus := eng.Generate(fault.Fault{Gate: tf.Gate, Pin: -1, SA: sa})
		capCube = append(capBuf[:0], capCube...) // the next Generate reuses the engine's cube
		// Launch/init pattern: the opposite stuck-at test sets the site to
		// the pre-transition value (its activation condition).
		initCube, initStatus := eng.Generate(fault.Fault{Gate: tf.Gate, Pin: -1, SA: 1 - sa})
		if capStatus == Redundant || initStatus == Redundant {
			// The transition cannot be launched or captured: untestable.
			res.Untestable++
			detected[fi] = true
			continue
		}
		if capStatus != Detected || initStatus != Detected {
			res.Aborted++
			continue
		}
		// Only the pairs (last, v1) and (v1, v2) are new: drop every
		// still-live fault they detect (they can detect other faults too).
		tail := logic.NewPatternSet(len(n.PIs), 0)
		if patterns.N > 0 {
			tail.Append(patterns.Pattern(patterns.N - 1))
		}
		for _, v := range [][]bool{fillCube(initCube, rng), fillCube(capCube, rng)} {
			patterns.Append(v)
			tail.Append(v)
		}
		var live []fault.TransitionFault
		var liveIdx []int
		for i, tf2 := range faults {
			if !detected[i] {
				live = append(live, tf2)
				liveIdx = append(liveIdx, i)
			}
		}
		r, err := fault.SimulateTransitions(n, tail, live, cfg.Options)
		if err != nil {
			return nil, err
		}
		for i, d := range r.DetectedBy {
			if d >= 0 {
				detected[liveIdx[i]] = true
			}
		}
	}

	final, err := fault.SimulateTransitions(n, patterns, faults, cfg.Options)
	if err != nil {
		return nil, err
	}
	res.Patterns = patterns
	res.Detected = final.Detected
	if res.TotalFaults > 0 {
		res.Coverage = float64(res.Detected) / float64(res.TotalFaults)
	}
	res.Runtime = time.Since(start)
	return res, nil
}
