package fault

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// These tests pin RunInto's good-value memo: a one-group set whose PI words
// equal the last simulated ones skips the good simulation, and nothing else
// may ever be served from it. The oracle is a fresh Simulator per check, so
// no memo state can leak into the reference answer.

// freshRunInto is the oracle: RunInto on a simulator that has never run.
func freshRunInto(t *testing.T, c *circuit.Compiled, w int, p *logic.PatternSet, faults []Fault) []int {
	t.Helper()
	detBy := make([]int, len(faults))
	NewSimulatorCompiledWords(c, w).RunInto(p, faults, detBy, nil)
	return detBy
}

func randSet(rng *rand.Rand, inputs, n int) *logic.PatternSet {
	p := logic.NewPatternSet(inputs, n)
	p.RandFill(rng.Uint64)
	return p
}

// TestRunIntoMemoMatchesFreshSimulator drives one simulator through a
// random interleaving of every call that reads or rewrites the value lanes
// and checks each RunInto against a fresh simulator: the same set again, a
// set refilled in place at the same N (wholesale or one bit), a grown set
// (including an all-zero pattern that leaves the PI words unchanged), a
// shrunk set, an equal-content clone, a set wider than one lane group, and
// Stage/Probe, DictionaryRange and RunSerial in between.
func TestRunIntoMemoMatchesFreshSimulator(t *testing.T) {
	n := circuit.Random(12, 300, 5)
	c, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	faults := Universe(n)
	in := len(n.PIs)
	for _, w := range []int{1, 8} {
		rng := rand.New(rand.NewSource(int64(17 + w)))
		s := NewSimulatorCompiledWords(c, w)
		oneGroup := func() int { return 1 + rng.Intn(w*logic.WordBits) }
		cur := randSet(rng, in, oneGroup())
		check := func(op string, p *logic.PatternSet, fs []Fault) {
			t.Helper()
			detBy := make([]int, len(fs))
			s.RunInto(p, fs, detBy, nil)
			want := freshRunInto(t, c, w, p, fs)
			for i := range fs {
				if detBy[i] != want[i] {
					t.Fatalf("W=%d %s (N=%d): fault %d detected by %d, fresh simulator says %d",
						w, op, p.N, i, detBy[i], want[i])
				}
			}
		}
		for step := 0; step < 150; step++ {
			switch rng.Intn(11) {
			case 0:
				check("same set", cur, faults)
			case 1:
				lo := rng.Intn(len(faults))
				check("same set, fault shard", cur, faults[lo:lo+rng.Intn(len(faults)-lo)+1])
			case 2:
				cur.RandFill(rng.Uint64)
				check("refilled in place", cur, faults)
			case 3:
				if cur.N > 0 {
					cur.Set(rng.Intn(cur.N), rng.Intn(in), rng.Intn(2) == 1)
				}
				check("one bit rewritten in place", cur, faults)
			case 4:
				for k := rng.Intn(70); k > 0; k-- {
					cur.Append(randBits(rng, in))
				}
				check("grown", cur, faults)
			case 5:
				cur.Append(make([]bool, in)) // PI words unchanged if N stays in its last word
				check("grown by an all-zero pattern", cur, faults)
			case 6:
				cur.Reset()
				for k := oneGroup(); k > 0; k-- {
					cur.Append(randBits(rng, in))
				}
				check("reset and refilled", cur, faults)
			case 7:
				check("equal-content clone", cur.Clone(), faults)
			case 8:
				check("more words than lanes", randSet(rng, in, w*logic.WordBits+1+rng.Intn(100)), faults)
			case 9:
				p := randSet(rng, in, oneGroup())
				s.Stage(p)
				for k := 0; k < 5; k++ {
					s.Probe(faults[rng.Intn(len(faults))])
				}
				if rng.Intn(2) == 0 {
					check("staged set", p, faults)
				}
			case 10:
				p := randSet(rng, in, oneGroup())
				if rng.Intn(2) == 0 {
					s.Dictionary(p, faults[:40])
				} else {
					s.RunSerial(p, faults[:40])
				}
				if rng.Intn(2) == 0 {
					check("set of the last dictionary or serial run", p, faults)
				}
			}
			if cur.Words() > w { // keep the running set within one group
				cur = randSet(rng, in, oneGroup())
			}
		}
	}
}

// TestRunIntoOneGoodSimPerSet pins the memo's point: RunInto over k fault
// shards of one one-group set runs exactly one good-circuit simulation, a
// content change costs exactly one more, and a set wider than the lane
// group still simulates every group on every call.
func TestRunIntoOneGoodSimPerSet(t *testing.T) {
	n := circuit.Random(16, 400, 9)
	faults := Universe(n)
	const k = 7
	shard := len(faults) / k
	for _, w := range []int{1, 8} {
		s, err := NewSimulatorWords(n, w)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		p := randSet(rng, len(n.PIs), w*logic.WordBits-3)
		runShards := func() int {
			before := s.goodSims
			for i := 0; i < k; i++ {
				fs := faults[i*shard : (i+1)*shard]
				s.RunInto(p, fs, make([]int, len(fs)), nil)
			}
			return s.goodSims - before
		}
		if got := runShards(); got != 1 {
			t.Errorf("W=%d: %d shards of one set ran %d good simulations, want 1", w, k, got)
		}
		if got := runShards(); got != 0 {
			t.Errorf("W=%d: the same set again ran %d good simulations, want 0", w, got)
		}
		p.RandFill(rng.Uint64)
		if got := runShards(); got != 1 {
			t.Errorf("W=%d: a refilled set ran %d good simulations, want 1", w, got)
		}
		s.Stage(p)
		if got := runShards(); got != 1 {
			t.Errorf("W=%d: after Stage, %d good simulations, want 1", w, got)
		}

		// Two lane groups: the memo does not apply, so every call pays one
		// simulation per group. A fault the set never detects keeps the
		// group loop from stopping early.
		p = randSet(rng, len(n.PIs), 2*w*logic.WordBits)
		undet := -1
		for i, d := range freshRunInto(t, s.Compiled(), w, p, faults) {
			if d < 0 {
				undet = i
				break
			}
		}
		if undet < 0 {
			t.Fatal("fixture: every fault detected, none keeps both groups live")
		}
		before := s.goodSims
		for i := 0; i < 2; i++ {
			s.RunInto(p, faults[undet:undet+1], []int{0}, nil)
		}
		if got := s.goodSims - before; got != 4 {
			t.Errorf("W=%d: two calls on a two-group set ran %d good simulations, want 4", w, got)
		}
	}
}
