package fault

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// walkEvalsWant pins the exact number of gates detectLanes evaluates on
// Random(64,2000,3)'s collapsed universe, keyed "op/patterns/W". The
// answers of the walk are pinned elsewhere; these counts pin its work, so a
// change of the walk's data layout must leave them equal.
var walkEvalsWant = map[string]int{
	"Run/128/1":        491473,
	"Probe/128/1":      483559,
	"Dictionary/128/1": 950193,
	"Run/128/2":        491473,
	"Probe/128/2":      620879,
	"Dictionary/128/2": 575609,
	"Run/128/8":        491473,
	"Probe/128/8":      620879,
	"Dictionary/128/8": 575609,
	"Run/200/1":        545092,
	"Probe/200/1":      474942,
	"Dictionary/200/1": 1705454,
	"Run/200/2":        545092,
	"Probe/200/2":      606488,
	"Dictionary/200/2": 1117943,
	"Run/200/8":        536472,
	"Probe/200/8":      667162,
	"Dictionary/200/8": 679305,
}

// TestWalkGateEvalsPinned runs Run, Probe after Stage and Dictionary at
// 128 and 200 patterns and W in {1,2,8}, and compares the gates each
// evaluated with walkEvalsWant. Probe stages the first min(patterns, 64*W)
// patterns, the most one lane group holds.
func TestWalkGateEvalsPinned(t *testing.T) {
	c := circuit.Random(64, 2000, 3)
	faults := Universe(c)
	for _, n := range []int{128, 200} {
		for _, w := range []int{1, 2, 8} {
			rng := rand.New(rand.NewSource(1))
			p := logic.NewPatternSet(len(c.PIs), n)
			p.RandFill(rng.Uint64)
			staged := logic.NewPatternSet(len(c.PIs), min(n, w*logic.WordBits))
			staged.RandFill(rng.Uint64)
			s, err := NewSimulatorWords(c, w)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			count := func(op string, run func()) {
				before := s.gateEvals
				run()
				got[fmt.Sprintf("%s/%d/%d", op, n, w)] = s.gateEvals - before
			}
			count("Run", func() { s.Run(p, faults) })
			count("Probe", func() {
				s.Stage(staged)
				for _, f := range faults {
					s.Probe(f)
				}
			})
			count("Dictionary", func() { s.Dictionary(p, faults) })
			for k, v := range got {
				if want, ok := walkEvalsWant[k]; !ok || v != want {
					t.Errorf("%s: %d gates evaluated, want %d", k, v, want)
				}
			}
		}
	}
}
