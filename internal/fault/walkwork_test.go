package fault

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// walkEvalsWant pins the exact number of gates the walk evaluates on
// Random(64,2000,3)'s collapsed universe, keyed "op/patterns/W". The
// answers of the walk are pinned elsewhere; these counts pin its work, so a
// change of the walk's data layout must leave them equal. Run and
// Dictionary walk once per fanout-free region stem (Dictionary walks a
// one-fault region from the fault site); Probe walks once per fault. Run
// and Probe halt each walk once its need — the earliest possible detection
// of each fault it serves — is observed; Dictionary never halts, so its rows
// are those of the walk that always ran until the effect died.
var walkEvalsWant = map[string]int{
	"Run/128/1":        117523,
	"Probe/128/1":      215675,
	"Dictionary/128/1": 371151,
	"Run/128/2":        117523,
	"Probe/128/2":      277815,
	"Dictionary/128/2": 214347,
	"Run/128/8":        117523,
	"Probe/128/8":      277815,
	"Dictionary/128/8": 214347,
	"Run/200/1":        132552,
	"Probe/200/1":      204335,
	"Dictionary/200/1": 672613,
	"Run/200/2":        132552,
	"Probe/200/2":      261310,
	"Dictionary/200/2": 418255,
	"Run/200/8":        132363,
	"Probe/200/8":      298469,
	"Dictionary/200/8": 241845,
}

// sensStepsWant pins the gates whose side inputs the backward
// sensitization pass of Run and Dictionary read, keyed like walkEvalsWant;
// Probe reads none.
var sensStepsWant = map[string]int{
	"Run/128/1":        9908,
	"Dictionary/128/1": 8433,
	"Run/128/2":        9908,
	"Dictionary/128/2": 4288,
	"Run/128/8":        9908,
	"Dictionary/128/8": 4288,
	"Run/200/1":        13236,
	"Dictionary/200/1": 16563,
	"Run/200/2":        13236,
	"Dictionary/200/2": 8638,
	"Run/200/8":        10338,
	"Dictionary/200/8": 4424,
}

// TestWalkGateEvalsPinned runs Run, Probe after Stage and Dictionary at
// 128 and 200 patterns and W in {1,2,8}, and compares the gates each
// evaluated with walkEvalsWant and the sensitization steps each took with
// sensStepsWant. Probe stages the first min(patterns, 64*W) patterns, the
// most one lane group holds.
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
			s, err := New(c, Options{Words: w})
			if err != nil {
				t.Fatal(err)
			}
			got, steps := map[string]int{}, map[string]int{}
			count := func(op string, run func()) {
				before, stepsBefore := s.gateEvals, s.sensSteps
				run()
				k := fmt.Sprintf("%s/%d/%d", op, n, w)
				got[k], steps[k] = s.gateEvals-before, s.sensSteps-stepsBefore
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
				if want := sensStepsWant[k]; steps[k] != want {
					t.Errorf("%s: %d sensitization steps, want %d", k, steps[k], want)
				}
			}
		}
	}
}
