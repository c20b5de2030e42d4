package fault

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// These tests pin the documented Stage/Probe contracts at their edges: what
// panics, what restages, and what stays bit-identical to the RunInto oracle
// — so the incremental-staging fast path can never silently widen.

func assertPanics(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want panic containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, want message containing %q", r, substr)
		}
	}()
	fn()
}

func stageFixture(t *testing.T, words int) (*Simulator, *circuit.Netlist, []Fault) {
	t.Helper()
	n := circuit.Random(7, 80, 11)
	s, err := New(n, Options{Words: words})
	if err != nil {
		t.Fatal(err)
	}
	return s, n, Universe(n)
}

// TestProbeWithoutStagePanics pins the misuse guard: Probe with nothing
// staged — never staged, or staged and then invalidated by a Run-family
// call — must panic with the documented message, not return garbage.
func TestProbeWithoutStagePanics(t *testing.T) {
	s, n, faults := stageFixture(t, 1)
	assertPanics(t, "Probe without Stage", func() { s.Probe(faults[0]) })

	// Stage, then invalidate via each Run-family entry point: the staged
	// lanes are clobbered, so Probe must refuse rather than read them.
	p := logic.NewPatternSet(len(n.PIs), 30)
	rng := rand.New(rand.NewSource(1))
	p.RandFill(rng.Uint64)
	detBy := make([]int, len(faults))

	s.Stage(p)
	s.Probe(faults[0]) // sanity: staged probes work
	s.RunInto(p, faults, detBy, nil)
	assertPanics(t, "Probe without Stage", func() { s.Probe(faults[0]) })

	s.Stage(p)
	s.RunSerial(p, faults)
	assertPanics(t, "Probe without Stage", func() { s.Probe(faults[0]) })
}

// TestStageRejectsEmptySet pins that staging zero patterns is a contract
// violation (Probe over an empty set is meaningless), as is a set wider
// than the simulator's lane group.
func TestStageRejectsEmptySet(t *testing.T) {
	s, n, _ := stageFixture(t, 1)
	assertPanics(t, "Stage needs", func() { s.Stage(logic.NewPatternSet(len(n.PIs), 0)) })
}

// TestStageRejectsOversizedSet pins the lane-group bound: a W-word
// simulator can stage at most W pattern words; more must panic, not
// silently truncate the set.
func TestStageRejectsOversizedSet(t *testing.T) {
	s, n, _ := stageFixture(t, 2)
	oversize := logic.NewPatternSet(len(n.PIs), 2*logic.WordBits+1) // 3 words > W=2
	assertPanics(t, "Stage needs", func() { s.Stage(oversize) })

	w1, _, _ := stageFixture(t, 1)
	two := logic.NewPatternSet(len(n.PIs), logic.WordBits+1)
	assertPanics(t, "Stage needs", func() { w1.Stage(two) })
}

// TestStageRejectsWidthMismatch pins the input-width check: a pattern set
// for a different circuit must panic with the documented message.
func TestStageRejectsWidthMismatch(t *testing.T) {
	s, n, _ := stageFixture(t, 1)
	assertPanics(t, "pattern width", func() { s.Stage(logic.NewPatternSet(len(n.PIs)+3, 8)) })
}

// TestStageShrunkSetRestages pins the incremental-staging guard: the fast
// path only triggers for the same set object growing append-only. A set
// that shrank (Reset + refill below the staged count) or a different set
// object must take the full restage, and every Probe afterwards must match
// the RunInto oracle on the new set.
func TestStageShrunkSetRestages(t *testing.T) {
	s, n, faults := stageFixture(t, 1)
	rng := rand.New(rand.NewSource(7))

	p := logic.NewPatternSet(len(n.PIs), 0)
	for k := 0; k < 60; k++ {
		p.Append(randBits(rng, len(n.PIs)))
	}
	s.Stage(p)

	// Shrink the same object: Reset drops N to zero, then refill with
	// different, fewer patterns. The stale staged lanes must not leak.
	p.Reset()
	for k := 0; k < 17; k++ {
		p.Append(randBits(rng, len(n.PIs)))
	}
	s.Stage(p)
	probeMatchesOracle(t, s, n, p, faults)

	// A brand-new smaller object likewise restages from scratch.
	q := logic.NewPatternSet(len(n.PIs), 9)
	q.RandFill(rng.Uint64)
	s.Stage(q)
	probeMatchesOracle(t, s, n, q, faults)
}

// TestStageMultiWordIncremental pins words>1 staging: a set grown
// append-only across several Stage calls (the incremental path, including
// crossings of 64-pattern word boundaries) probes bit-identically to the
// RunInto oracle at every step.
func TestStageMultiWordIncremental(t *testing.T) {
	s, n, faults := stageFixture(t, 8)
	rng := rand.New(rand.NewSource(13))
	p := logic.NewPatternSet(len(n.PIs), 0)
	for _, grow := range []int{1, 40, 23, 64, 130} { // cumulative: 1..258 patterns
		for k := 0; k < grow; k++ {
			p.Append(randBits(rng, len(n.PIs)))
		}
		s.Stage(p)
		probeMatchesOracle(t, s, n, p, faults)
	}
}

// probeMatchesOracle cross-checks Probe for every fault against a fresh
// RunInto over the same set — the documented equivalence.
func probeMatchesOracle(t *testing.T, s *Simulator, n *circuit.Netlist, p *logic.PatternSet, faults []Fault) {
	t.Helper()
	oracle, err := New(n, Options{Words: s.Words()})
	if err != nil {
		t.Fatal(err)
	}
	detBy := make([]int, len(faults))
	oracle.RunInto(p, faults, detBy, nil)
	for i, f := range faults {
		if got, want := s.Probe(f), detBy[i] >= 0; got != want {
			t.Fatalf("N=%d fault %d (%v): Probe = %v, oracle = %v", p.N, i, f, got, want)
		}
	}
}

func randBits(rng *rand.Rand, n int) []bool {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = rng.Intn(2) == 1
	}
	return bits
}
