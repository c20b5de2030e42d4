package fault

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// walkEvalsWant pins the exact number of gates the walk evaluates on
// Random(64,2000,3)'s collapsed stuck-at universe (Transitions: its
// transition universe), keyed "op/patterns/W". The answers of the walk are
// pinned elsewhere; these counts pin its work, so a change of the walk's
// data layout must leave them equal. Every walk starts at a fanout-free
// region stem: Run and Dictionary walk each stem once for all of its
// faults, Probe, Transitions and RunSerial once per fault. All but
// Dictionary halt each walk once its need — the earliest possible detection
// of each fault it serves — is observed; Dictionary never halts, so its rows
// are those of the walk that always ran until the effect died. RunSerial
// walks one pattern at a time over one lane, so its rows do not depend on W.
var walkEvalsWant = map[string]int{
	"Run/128/1":         117523,
	"Probe/128/1":       201229,
	"Dictionary/128/1":  371151,
	"Transitions/128/1": 81903,
	"RunSerial/128/1":   164772,
	"Run/128/2":         117523,
	"Probe/128/2":       259149,
	"Dictionary/128/2":  214347,
	"Transitions/128/2": 102608,
	"RunSerial/128/2":   164772,
	"Run/128/8":         117523,
	"Probe/128/8":       259149,
	"Dictionary/128/8":  214347,
	"Transitions/128/8": 102608,
	"RunSerial/128/8":   164772,
	"Run/200/1":         132552,
	"Probe/200/1":       189401,
	"Dictionary/200/1":  672613,
	"Transitions/200/1": 92369,
	"RunSerial/200/1":   180051,
	"Run/200/2":         132552,
	"Probe/200/2":       242929,
	"Dictionary/200/2":  418255,
	"Transitions/200/2": 113456,
	"RunSerial/200/2":   180051,
	"Run/200/8":         132363,
	"Probe/200/8":       279529,
	"Dictionary/200/8":  241845,
	"Transitions/200/8": 125424,
	"RunSerial/200/8":   180051,
}

// sensStepsWant pins the gates whose side inputs reach read, keyed like
// walkEvalsWant: through the memo of the backward sensitization pass for
// Run and Dictionary, gate by gate along each fault's path for Probe,
// Transitions and RunSerial.
var sensStepsWant = map[string]int{
	"Run/128/1":         9908,
	"Probe/128/1":       5214,
	"Dictionary/128/1":  8433,
	"Transitions/128/1": 815,
	"RunSerial/128/1":   175771,
	"Run/128/2":         9908,
	"Probe/128/2":       5479,
	"Dictionary/128/2":  4288,
	"Transitions/128/2": 544,
	"RunSerial/128/2":   175771,
	"Run/128/8":         9908,
	"Probe/128/8":       5479,
	"Dictionary/128/8":  4288,
	"Transitions/128/8": 544,
	"RunSerial/128/8":   175771,
	"Run/200/1":         13236,
	"Probe/200/1":       5257,
	"Dictionary/200/1":  16563,
	"Transitions/200/1": 1243,
	"RunSerial/200/1":   248920,
	"Run/200/2":         13236,
	"Probe/200/2":       5412,
	"Dictionary/200/2":  8638,
	"Transitions/200/2": 838,
	"RunSerial/200/2":   248920,
	"Run/200/8":         10338,
	"Probe/200/8":       5516,
	"Dictionary/200/8":  4424,
	"Transitions/200/8": 585,
	"RunSerial/200/8":   248920,
}

// TestWalkGateEvalsPinned runs Run, Probe after Stage, Dictionary,
// transition simulation (one shard) and RunSerial at 128 and 200 patterns
// and W in {1,2,8}, and compares the gates each
// evaluated with walkEvalsWant and the sensitization steps each took with
// sensStepsWant. Probe stages the first min(patterns, 64*W) patterns, the
// most one lane group holds.
func TestWalkGateEvalsPinned(t *testing.T) {
	c := circuit.Random(64, 2000, 3)
	faults, tfaults := Universe(c), TransitionUniverse(c)
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
			count("Transitions", func() { s.transitions(p, tfaults, make([]int, len(tfaults))) })
			count("RunSerial", func() { s.RunSerial(p, faults) })
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
