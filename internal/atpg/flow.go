package atpg

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/parallel"
)

// Config controls the full test-generation flow.
type Config struct {
	Seed         int64
	RandomBlocks int // max 64-pattern random blocks before deterministic phase (default 16)
	RandomStall  int // stop random phase after this many blocks without new detections (default 2)
	BacktrackLim int // PODEM backtrack limit (default 10000)
	Guide        Guide
	Compact      bool // reverse-order static compaction (default on via DefaultConfig)
	SkipRandom   bool // deterministic-only flow (for ablation)
	// Options sets the fault-simulation width of every phase and the
	// fan-out of the final coverage sweep. PODEM generation itself runs on
	// one engine in fault order.
	fault.Options
}

// DefaultConfig returns the standard flow configuration.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		RandomBlocks: 16,
		RandomStall:  2,
		BacktrackLim: 10000,
		Guide:        GuideSCOAP,
		Compact:      true,
	}
}

// Result reports the outcome of a full ATPG run.
type Result struct {
	Circuit     string
	TotalFaults int
	Detected    int
	Redundant   int
	Aborted     int
	Patterns    *logic.PatternSet
	RandomPhase int     // faults detected by random patterns
	DetPhase    int     // faults detected by PODEM patterns
	Coverage    float64 // detected / total
	Efficiency  float64 // (detected + proven redundant) / total
	Backtracks  int64
	Runtime     time.Duration
	GenTime     time.Duration   // deterministic phase: PODEM generation, fill and commit to the pending block
	DropTime    time.Duration   // deterministic phase: block fault dropping and probes
	CoverageAt  []CoveragePoint // coverage after each pattern (for figure F2)
}

// CoveragePoint is one sample of the coverage-vs-patterns curve.
type CoveragePoint struct {
	Patterns int
	Coverage float64
}

// flow carries the state of one ATPG run: configuration, the shared
// compiled IR and SCOAP table, the simulator, and the scratch buffers that
// phase-1/2/3 hot loops reuse instead of allocating per block or pattern.
type flow struct {
	start    time.Time
	cfg      Config
	net      *circuit.Netlist
	comp     *circuit.Compiled
	scoap    *circuit.SCOAP
	fsim     *fault.Simulator
	faults   []fault.Fault
	detected []bool
	res      *Result
	patterns *logic.PatternSet

	// Scratch reused across blocks/patterns (satellite of the batching
	// work: liveFaults used to allocate two slices per call in hot loops).
	live    []fault.Fault // live-fault worklist
	liveIdx []int         // live position -> global fault index
	detBy   []int         // first-detection slots, parallel to live
	dropBuf []int         // fsim.RunInto internal worklist
	fillRng *rand.Rand    // don't-care fill, reseeded per fault
}

// liveFaults rebuilds the live worklist (undetected faults and their global
// indices) in the flow-owned scratch buffers and returns them sliced to the
// live count; detBy is resized alongside for the next RunInto call.
func (f *flow) liveFaults() ([]fault.Fault, []int) {
	f.live, f.liveIdx = f.live[:0], f.liveIdx[:0]
	for i, fl := range f.faults {
		if !f.detected[i] {
			f.live = append(f.live, fl)
			f.liveIdx = append(f.liveIdx, i)
		}
	}
	if cap(f.detBy) < len(f.live) {
		f.detBy = make([]int, len(f.live))
	}
	f.detBy = f.detBy[:len(f.live)]
	return f.live, f.liveIdx
}

// Run executes the full ATPG flow on the netlist: a random-pattern phase
// with fault dropping, a deterministic PODEM phase for the remaining
// faults with committed patterns dropped in 64×Words blocks, and optional
// reverse-order static compaction. Results are bit-identical for any
// Options.
func Run(n *circuit.Netlist, cfg Config) (*Result, error) {
	f, err := newFlow(n, cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.SkipRandom {
		f.randomPhase()
	}
	f.deterministicBatched()
	if cfg.Compact && f.patterns.N > 1 {
		f.patterns = f.compact(logic.WordBits * cfg.Lanes())
	}
	return f.finish()
}

// newFlow applies the Config defaults and allocates the run state.
func newFlow(n *circuit.Netlist, cfg Config) (*flow, error) {
	start := time.Now()
	if cfg.RandomBlocks == 0 {
		cfg.RandomBlocks = 16
	}
	if cfg.RandomStall == 0 {
		cfg.RandomStall = 2
	}
	if cfg.BacktrackLim == 0 {
		cfg.BacktrackLim = 10000
	}
	comp, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	fsim, err := fault.New(n, cfg.Options)
	if err != nil {
		return nil, err
	}
	faults := fault.Universe(n)
	return &flow{
		start:    start,
		cfg:      cfg,
		net:      n,
		comp:     comp,
		scoap:    circuit.ComputeSCOAPCompiled(comp),
		fsim:     fsim,
		faults:   faults,
		detected: make([]bool, len(faults)),
		res:      &Result{Circuit: n.Name, TotalFaults: len(faults)},
		patterns: logic.NewPatternSet(len(n.PIs), 0),
		fillRng:  rand.New(rand.NewSource(0)),
		live:     make([]fault.Fault, 0, len(faults)),
		liveIdx:  make([]int, 0, len(faults)),
		detBy:    make([]int, 0, len(faults)),
		dropBuf:  make([]int, 0, len(faults)),
	}, nil
}

// finish does the final accounting: one clean fault simulation of the final
// set, fanned out across workers (fault-shard results are bit-identical to
// serial).
func (f *flow) finish() (*Result, error) {
	final, err := fault.RunConcurrent(f.net, f.patterns, f.faults, f.cfg.Options)
	if err != nil {
		return nil, err
	}
	res := f.res
	res.Patterns = f.patterns
	res.Detected = final.Detected
	if res.TotalFaults > 0 {
		res.Coverage = float64(res.Detected) / float64(res.TotalFaults)
		res.Efficiency = float64(res.Detected+res.Redundant) / float64(res.TotalFaults)
	}
	res.CoverageAt = coverageCurve(final, f.patterns.N, res.TotalFaults)
	res.Runtime = time.Since(f.start)
	return res, nil
}

// randomPhase runs phase 1: 64-pattern random blocks dropped against the
// live fault list, stopping early after RandomStall consecutive blocks with
// no new detections. Blocks that detect nothing are not appended.
func (f *flow) randomPhase() {
	rng := rand.New(rand.NewSource(f.cfg.Seed))
	block := logic.NewPatternSet(len(f.net.PIs), logic.WordBits)
	stall := 0
	remaining := len(f.faults)
	for b := 0; b < f.cfg.RandomBlocks && remaining > 0 && stall < f.cfg.RandomStall; b++ {
		block.RandFill(rng.Uint64)
		live, liveIdx := f.liveFaults()
		newDet := f.fsim.RunInto(block, live, f.detBy, f.dropBuf)
		for i, d := range f.detBy {
			if d >= 0 {
				f.detected[liveIdx[i]] = true
			}
		}
		if newDet == 0 {
			stall++
			continue // drop useless block entirely
		}
		stall = 0
		remaining -= newDet
		f.res.RandomPhase += newDet
		f.patterns.AppendSet(block)
	}
}

// fillSeed derives the RNG seed for the don't-care fill of the fault at
// global index fi. Splitting per fault — rather than drawing from one
// shared stream — makes every pattern a pure function of its fault index.
// The split is part of the output contract: changing it would change every
// generated pattern set.
func (f *flow) fillSeed(fi int) int64 {
	return parallel.SplitSeed(f.cfg.Seed, int64(fi))
}

// fillBit draws one don't-care fill bit from rng: the draw rng.Intn(2)
// makes (its power-of-two branch, Int31n, masks Int31 = Int63>>32), without
// the call chain. The fill stream is part of the output contract (see
// fillSeed), so this must keep equal to rng.Intn(2).
func fillBit(rng *rand.Rand) logic.Word {
	return logic.Word(rng.Int63()>>32) & 1
}

// fillCube turns a test cube into a new pattern, filling its X bits from rng.
func fillCube(cube []logic.V, rng *rand.Rand) []bool {
	dst := make([]bool, len(cube))
	for i, v := range cube {
		switch v {
		case logic.V1:
			dst[i] = true
		case logic.V0:
		default:
			dst[i] = fillBit(rng) == 1
		}
	}
	return dst
}

// appendCube appends the pattern fillCube(cube, rng) would return to p in
// one pass over the inputs, writing each bit straight into the new
// pattern's word. Each row gains a zero word when the pattern opens one,
// as Append does.
func appendCube(p *logic.PatternSet, cube []logic.V, rng *rand.Rand) {
	if len(cube) != p.Inputs {
		panic(fmt.Sprintf("atpg: cube width %d != inputs %d", len(cube), p.Inputs))
	}
	w, b := p.N/logic.WordBits, uint(p.N%logic.WordBits)
	fresh := b == 0
	for i, v := range cube {
		row := p.Bits[i]
		if fresh {
			row = append(row, 0)
			p.Bits[i] = row
		}
		var x logic.Word
		switch v {
		case logic.V1:
			x = 1
		case logic.V0:
		default:
			x = fillBit(rng)
		}
		row[w] = row[w]&^(1<<b) | x<<b
	}
	p.N++
}

// compact keeps patterns, sweeping in reverse order, that detect at least
// one fault no later pattern detects. The sweep re-simulates blockCap
// patterns per fault-simulation call and attributes detections to patterns
// with the block's first-detection indices: a pattern survives iff some
// fault's first detection in the reversed order lands on it — exactly the
// serial one-pattern-at-a-time dropping rule, so the kept set is
// independent of blockCap. Blocks and the kept set are built with word
// moves; the per-pattern reference lives with the oracle tests.
func (f *flow) compact(blockCap int) *logic.PatternSet {
	p := f.patterns
	detected := make([]bool, len(f.faults))
	block := logic.NewPatternSet(p.Inputs, 0)
	keep := make([]bool, p.N)
	live := make([]fault.Fault, 0, len(f.faults))
	liveIdx := make([]int, 0, len(f.faults))
	for k := p.N - 1; k >= 0; {
		live, liveIdx = live[:0], liveIdx[:0]
		for i, fl := range f.faults {
			if !detected[i] {
				live = append(live, fl)
				liveIdx = append(liveIdx, i)
			}
		}
		if len(live) == 0 {
			break
		}
		block.Reset()
		last := k
		block.AppendReversed(p, last, min(blockCap, last+1)) // slot d holds pattern last-d
		k -= block.N
		if cap(f.detBy) < len(live) {
			f.detBy = make([]int, len(live))
		}
		f.detBy = f.detBy[:len(live)]
		f.fsim.RunInto(block, live, f.detBy, f.dropBuf)
		for i, d := range f.detBy {
			if d >= 0 {
				detected[liveIdx[i]] = true
				keep[last-d] = true
			}
		}
	}
	var kept []int
	for k, kp := range keep {
		if kp {
			kept = append(kept, k)
		}
	}
	out := logic.NewPatternSet(p.Inputs, 0)
	out.AppendGather(p, kept)
	return out
}

// coverageCurve recomputes the cumulative coverage after each pattern from
// the first-detection indices of the final run.
func coverageCurve(r *fault.Result, nPatterns, total int) []CoveragePoint {
	if total == 0 || nPatterns == 0 {
		return nil
	}
	detAt := make([]int, nPatterns)
	for _, d := range r.DetectedBy {
		if d >= 0 && d < nPatterns {
			detAt[d]++
		}
	}
	curve := make([]CoveragePoint, nPatterns)
	cum := 0
	for k := 0; k < nPatterns; k++ {
		cum += detAt[k]
		curve[k] = CoveragePoint{Patterns: k + 1, Coverage: float64(cum) / float64(total)}
	}
	return curve
}

// RandomOnly generates nPatterns random patterns and returns the coverage
// curve — the baseline against which the ATPG curve is compared (figure
// F2) — fault-simulated with fault.RunConcurrent under o.
func RandomOnly(n *circuit.Netlist, nPatterns int, seed int64, o fault.Options) (*Result, error) {
	faults := fault.Universe(n)
	rng := rand.New(rand.NewSource(seed))
	p := logic.NewPatternSet(len(n.PIs), nPatterns)
	p.RandFill(rng.Uint64)
	r, err := fault.RunConcurrent(n, p, faults, o)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Circuit:     n.Name,
		TotalFaults: len(faults),
		Detected:    r.Detected,
		Patterns:    p,
		Coverage:    r.Coverage,
		CoverageAt:  coverageCurve(r, p.N, len(faults)),
	}
	return res, nil
}
