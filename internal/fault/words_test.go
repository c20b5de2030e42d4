package fault

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// laneWidths is the full grid of supported pattern-word packings; the
// bit-identity suite pins every width against the serial baseline.
var laneWidths = []int{1, 2, 4, 8}

// TestNormalizeWords pins the lane-width clamping every engine entry point
// applies to raw flag values.
func TestNormalizeWords(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 7: 4, 8: 8, 9: 8, 64: 8}
	for in, want := range cases {
		if got := NormalizeWords(in); got != want {
			t.Errorf("NormalizeWords(%d) = %d, want %d", in, got, want)
		}
	}
}

// Property: for every lane width W in {1,2,4,8} and worker count in
// {1,4,8}, Run and RunConcurrentWords return exactly the serial baseline's
// DetectedBy — including ragged tails where the pattern count is not a
// multiple of 64*W, so the last super-word runs with fewer active lanes and
// a partial tail mask.
func TestMultiWordRunBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(6+rng.Intn(8), 40+rng.Intn(120), seed)
		faults := Universe(c)
		// Pattern counts straddling the super-word boundaries of every
		// width: 8 words = 512 patterns, so 500 exercises a ragged tail at
		// W=8, 130 at W=4 and W=2, 70 at every width.
		nPat := []int{70, 130, 500}[rng.Intn(3)]
		p := logic.NewPatternSet(len(c.PIs), nPat)
		p.RandFill(rng.Uint64)
		base, err := NewSimulator(c)
		if err != nil {
			return false
		}
		want := base.RunSerial(p, faults)
		for _, words := range laneWidths {
			fsim, err := NewSimulatorWords(c, words)
			if err != nil {
				return false
			}
			got := fsim.Run(p, faults)
			if got.Detected != want.Detected || got.Coverage != want.Coverage {
				return false
			}
			for i := range faults {
				if got.DetectedBy[i] != want.DetectedBy[i] {
					return false
				}
			}
			for _, workers := range []int{1, 4, 8} {
				rc, err := RunConcurrentWords(c, p, faults, workers, words)
				if err != nil {
					return false
				}
				for i := range faults {
					if rc.DetectedBy[i] != want.DetectedBy[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// Property: the full-response dictionary is bit-identical across every lane
// width and worker count — signatures from W-word walks sharded over
// workers equal the single-word serial dictionary word for word.
func TestMultiWordDictionaryBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(6+rng.Intn(6), 40+rng.Intn(80), seed)
		faults := Universe(c)
		nPat := []int{65, 130, 420}[rng.Intn(3)]
		p := logic.NewPatternSet(len(c.PIs), nPat)
		p.RandFill(rng.Uint64)
		base, err := NewSimulator(c)
		if err != nil {
			return false
		}
		want := base.Dictionary(p, faults)
		for _, words := range laneWidths {
			for _, workers := range []int{1, 4, 8} {
				got, err := DictionaryConcurrentWords(c, p, faults, workers, words)
				if err != nil {
					return false
				}
				for i := range want {
					for o := range want[i].Bits {
						for w := range want[i].Bits[o] {
							if got[i].Bits[o][w] != want[i].Bits[o][w] {
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// Property: every lane of a multi-lane walk equals the full-resimulation
// oracle for its pattern word — the same independent check the single-word
// engine is pinned by, applied per lane so strided indexing and lane
// windows cannot silently swap or corrupt words.
func TestMultiWordMatchesFullResimOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(5+rng.Intn(6), 30+rng.Intn(80), seed)
		faults := Universe(c)
		for _, words := range []int{2, 4, 8} {
			fsim, err := NewSimulatorWords(c, words)
			if err != nil {
				return false
			}
			W := fsim.Words()
			p := logic.NewPatternSet(len(c.PIs), W*logic.WordBits)
			p.RandFill(rng.Uint64)
			// Per-word good values and flat PI words for the oracle.
			goodByWord := goodValues(fsim.Compiled(), p)
			piByWord := make([][]logic.Word, W)
			for w := 0; w < W; w++ {
				pi := make([]logic.Word, len(c.PIs))
				for i := range pi {
					pi[i] = p.Bits[i][w]
				}
				piByWord[w] = pi
			}
			// One wide block holding all W lanes.
			fsim.simulateGood(p, 0, 0, W, W)
			masks := make([]logic.Word, W)
			diff := make([]logic.Word, W)
			for l := 0; l < W; l++ {
				masks[l] = p.TailMask(l)
			}
			for _, fl := range faults {
				for l := range diff {
					diff[l] = 0
				}
				fsim.detectLanes(fl, 0, W, masks, diff, nil)
				for l := 0; l < W; l++ {
					want := fullResimDiff(c, fl, piByWord[l], goodByWord[l])
					if diff[l] != want&masks[l] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: lane windows compose — walking lanes [0,1) then [1,act) gives
// the same per-lane diffs as one [0,act) walk. This is the identity Run's
// staged filter relies on.
func TestLaneWindowComposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(6, 60+rng.Intn(60), seed)
		faults := Universe(c)
		fsim, err := NewSimulatorWords(c, 4)
		if err != nil {
			return false
		}
		W := fsim.Words()
		p := logic.NewPatternSet(len(c.PIs), W*logic.WordBits-17) // ragged tail
		p.RandFill(rng.Uint64)
		fsim.simulateGood(p, 0, 0, W, W)
		masks := make([]logic.Word, W)
		for l := 0; l < W; l++ {
			masks[l] = p.TailMask(l)
		}
		whole := make([]logic.Word, W)
		staged := make([]logic.Word, W)
		for _, fl := range faults {
			for l := 0; l < W; l++ {
				whole[l], staged[l] = 0, 0
			}
			fsim.detectLanes(fl, 0, W, masks, whole, nil)
			fsim.detectLanes(fl, 0, 1, masks[:1], staged[:1], nil)
			fsim.detectLanes(fl, 1, W-1, masks[1:], staged[1:], nil)
			for l := 0; l < W; l++ {
				if whole[l] != staged[l] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: the transition engine is bit-identical across lane widths and
// worker counts.
func TestTransitionWordsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := circuit.Random(8, 120, 7)
	faults := TransitionUniverse(c)
	p := logic.NewPatternSet(len(c.PIs), 150)
	p.RandFill(rng.Uint64)
	want, err := SimulateTransitionsWords(c, p, faults, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range laneWidths {
		for _, workers := range []int{1, 4, 8} {
			got, err := SimulateTransitionsWords(c, p, faults, workers, words)
			if err != nil {
				t.Fatal(err)
			}
			if got.Detected != want.Detected {
				t.Fatalf("words=%d workers=%d: detected %d != %d", words, workers, got.Detected, want.Detected)
			}
			for i := range faults {
				if got.DetectedBy[i] != want.DetectedBy[i] {
					t.Fatalf("words=%d workers=%d fault %d: %d != %d",
						words, workers, i, got.DetectedBy[i], want.DetectedBy[i])
				}
			}
		}
	}
}

// The walk's position-indexed good-value buffer is patched in place during
// a walk and must be restored exactly afterwards; otherwise results would
// depend on fault order. Pin the restore by snapshotting that buffer and
// comparing it after every fault's walk.
func TestWalkRestoresGoodValues(t *testing.T) {
	c := circuit.Random(8, 200, 11)
	faults := Universe(c)
	fsim, err := NewSimulatorWords(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	W := fsim.Words()
	rng := rand.New(rand.NewSource(11))
	p := logic.NewPatternSet(len(c.PIs), 2*logic.WordBits)
	p.RandFill(rng.Uint64)
	fsim.simulateGood(p, 0, 0, W, W)
	snapshot := append([]logic.Word(nil), fsim.good.Values()...)
	masks := []logic.Word{p.TailMask(0), p.TailMask(1)}
	diff := make([]logic.Word, W)
	for _, fl := range faults {
		diff[0], diff[1] = 0, 0
		fsim.detectLanes(fl, 0, W, masks, diff, nil)
		for i, v := range fsim.good.Values() {
			if v != snapshot[i] {
				t.Fatalf("fault %v: good value %d not restored: %x != %x", fl, i, v, snapshot[i])
			}
		}
	}
}

// The concurrent dictionary at every width must agree with Run on
// first-detection: a fault's earliest failing (pattern, PO) bit equals its
// DetectedBy index (cross-engine consistency, used by diagnosis).
func TestMultiWordDictionaryMatchesRun(t *testing.T) {
	for _, words := range laneWidths {
		t.Run(fmt.Sprintf("words=%d", words), func(t *testing.T) {
			c := circuit.Random(8, 150, 5)
			faults := Universe(c)
			rng := rand.New(rand.NewSource(5))
			p := logic.NewPatternSet(len(c.PIs), 200)
			p.RandFill(rng.Uint64)
			fsim, err := NewSimulatorWords(c, words)
			if err != nil {
				t.Fatal(err)
			}
			run := fsim.Run(p, faults)
			dict, err := DictionaryConcurrentWords(c, p, faults, 4, words)
			if err != nil {
				t.Fatal(err)
			}
			for i := range faults {
				first := -1
				for w := 0; w < p.Words(); w++ {
					var or logic.Word
					for o := range dict[i].Bits {
						or |= dict[i].Bits[o][w]
					}
					if or != 0 {
						first = w*logic.WordBits + bits.TrailingZeros64(uint64(or))
						break
					}
				}
				if first != run.DetectedBy[i] {
					t.Fatalf("fault %d: dictionary first fail %d != DetectedBy %d", i, first, run.DetectedBy[i])
				}
			}
		})
	}
}

// Property: RunInto with caller-owned scratch returns exactly Run's results
// when the same buffers are reused across many calls on different pattern
// sets — no stale detection state or worklist contents leak between drops.
func TestRunIntoMatchesRunReusedScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(5+rng.Intn(6), 30+rng.Intn(90), seed)
		faults := Universe(c)
		words := laneWidths[rng.Intn(len(laneWidths))]
		fsim, err := NewSimulatorWords(c, words)
		if err != nil {
			return false
		}
		detBy := make([]int, len(faults))
		liveBuf := make([]int, 0, len(faults))
		for round := 0; round < 4; round++ {
			nPat := 1 + rng.Intn(200)
			p := logic.NewPatternSet(len(c.PIs), nPat)
			p.RandFill(rng.Uint64)
			want := fsim.Run(p, faults)
			got := fsim.RunInto(p, faults, detBy, liveBuf)
			if got != want.Detected {
				return false
			}
			for i := range faults {
				if detBy[i] != want.DetectedBy[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: Probe against a staged pattern set answers exactly like a
// RunInto call over the same set and a single fault — across incremental
// re-staging of an append-only set (the batched ATPG flow's usage, where
// each committed pattern triggers a cheap tail-lane restage) and across a
// mid-run invalidation that forces the full pass again.
func TestStageProbeMatchesRunIntoOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(5+rng.Intn(6), 30+rng.Intn(80), seed)
		faults := Universe(c)
		words := laneWidths[rng.Intn(len(laneWidths))]
		probe, err := NewSimulatorWords(c, words)
		if err != nil {
			return false
		}
		oracle, err := NewSimulatorWords(c, words)
		if err != nil {
			return false
		}
		var db [1]int
		var one [1]Fault
		p := logic.NewPatternSet(len(c.PIs), 0)
		bits := make([]bool, len(c.PIs))
		cap := words * logic.WordBits
		for p.N < cap {
			grow := 1 + rng.Intn(17)
			if p.N+grow > cap {
				grow = cap - p.N
			}
			for g := 0; g < grow; g++ {
				for i := range bits {
					bits[i] = rng.Intn(2) == 1
				}
				p.Append(bits)
			}
			if rng.Intn(5) == 0 {
				// Clobber the staged values so the next Stage cannot take
				// the incremental path.
				probe.RunInto(p, faults[:1], db[:], nil)
			}
			probe.Stage(p)
			for _, fl := range faults {
				one[0] = fl
				want := oracle.RunInto(p, one[:], db[:], nil) > 0
				if probe.Probe(fl) != want {
					t.Errorf("seed %d: N=%d fault %+v: probe %v, oracle %v", seed, p.N, fl, !want, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}
