package fault

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Property: collapsing never invents faults and never changes which
// pattern sets achieve detection of the surviving representatives — on
// random circuits, every collapsed fault's detection status matches its
// status in the uncollapsed run.
func TestCollapsePreservesDetection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(6+rng.Intn(6), 30+rng.Intn(60), seed)
		fsim, err := NewSimulator(c)
		if err != nil {
			return false
		}
		all := AllFaults(c)
		col := Collapse(c, all)
		if len(col) > len(all) {
			return false
		}
		p := logic.NewPatternSet(len(c.PIs), 96)
		p.RandFill(rng.Uint64)
		rAll := fsim.Run(p, all)
		rCol := fsim.Run(p, col)
		// Index the uncollapsed results.
		status := map[Fault]bool{}
		for i, fl := range all {
			status[fl] = rAll.DetectedBy[i] >= 0
		}
		for i, fl := range col {
			if status[fl] != (rCol.DetectedBy[i] >= 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: the event-driven 64-way engine and the one-pattern-at-a-time
// baseline agree exactly — identical DetectedBy indices and Coverage — on
// randomly generated circuits. This pins the event-driven rewrite (epoch
// stamping, early termination) to the simplest formulation of PPSFP.
func TestEventDrivenMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(6+rng.Intn(8), 40+rng.Intn(120), seed)
		fsim, err := NewSimulator(c)
		if err != nil {
			return false
		}
		faults := Universe(c)
		p := logic.NewPatternSet(len(c.PIs), 70+rng.Intn(80))
		p.RandFill(rng.Uint64)
		par := fsim.Run(p, faults)
		ser := fsim.RunSerial(p, faults)
		if par.Coverage != ser.Coverage || par.Detected != ser.Detected {
			return false
		}
		for i := range faults {
			if par.DetectedBy[i] != ser.DetectedBy[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: the event-driven injection produces, word for word, the same
// PO difference words as a full re-simulation of the whole faulty circuit
// (every gate evaluated, no events, no cones) — an oracle independent of
// the cone and stamping machinery.
func TestEventDrivenMatchesFullResim(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(5+rng.Intn(6), 30+rng.Intn(80), seed)
		fsim, err := NewSimulator(c)
		if err != nil {
			return false
		}
		faults := Universe(c)
		p := logic.NewPatternSet(len(c.PIs), 64)
		p.RandFill(rng.Uint64)
		pi := make([]logic.Word, len(c.PIs))
		for i := range pi {
			pi[i] = p.Bits[i][0]
		}
		good := goodValues(fsim.Compiled(), p)[0]
		fsim.simulateGood(p, 0, 0, 1, 1)
		for _, fl := range faults {
			want := fullResimDiff(c, fl, pi, good)
			got := fsim.detectWord(fl, p.TailMask(0), nil)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// fullResimDiff re-evaluates every gate of the circuit with fault f
// injected and returns the OR over POs of faulty XOR good words.
func fullResimDiff(c *circuit.Netlist, f Fault, pi []logic.Word, good []logic.Word) logic.Word {
	vals := fullResim(c, &f, pi)
	var diff logic.Word
	for _, po := range c.POs {
		diff |= vals[po] ^ good[po]
	}
	return diff
}

// fullResim evaluates every gate of the circuit in topological order, with
// fault f injected when non-nil, and returns one word per gate.
func fullResim(c *circuit.Netlist, f *Fault, pi []logic.Word) []logic.Word {
	idx := c.InputIndex()
	vals := make([]logic.Word, len(c.Gates))
	site, pin := -1, -1
	var force logic.Word
	if f != nil {
		site, pin = f.Gate, f.Pin
		if f.SA == 1 {
			force = ^logic.Word(0)
		}
	}
	for _, id := range c.TopoOrder() {
		g := c.Gates[id]
		var v logic.Word
		if g.Type == circuit.Input || g.Type == circuit.DFF {
			v = pi[idx[id]]
		} else {
			in := make([]logic.Word, len(g.Fanin))
			for p, fi := range g.Fanin {
				in[p] = vals[fi]
				if id == site && p == pin {
					in[p] = force
				}
			}
			v = sim.Eval(g.Type, in)
		}
		if id == site && pin < 0 {
			v = force
		}
		vals[id] = v
	}
	return vals
}

// goodValues simulates every pattern word of p through a one-lane sim.Wide
// and returns each word's gate values by gate ID: vals[word][gate].
func goodValues(c *circuit.Compiled, p *logic.PatternSet) [][]logic.Word {
	gsim := sim.NewWideCompiled(c, 1)
	pi := make([]logic.Word, c.NumPIs())
	vals := make([][]logic.Word, p.Words())
	for w := range vals {
		for i := range pi {
			pi[i] = p.Bits[i][w]
		}
		byPos := gsim.BlockRange(pi, 0, 1)
		vals[w] = make([]logic.Word, c.NumGates())
		for g := range vals[w] {
			vals[w][g] = byPos[c.Tpos[g]]
		}
	}
	return vals
}

// Property: the word-sharded concurrent dictionary is bit-identical to the
// serial dictionary for any worker count.
func TestDictionaryConcurrentBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(6+rng.Intn(6), 40+rng.Intn(80), seed)
		fsim, err := NewSimulator(c)
		if err != nil {
			return false
		}
		faults := Universe(c)
		p := logic.NewPatternSet(len(c.PIs), 65+rng.Intn(200))
		p.RandFill(rng.Uint64)
		want := fsim.Dictionary(p, faults)
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := DictionaryConcurrentWords(c, p, faults, workers, 1)
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: a fault detected by a pattern set is also detected by any
// superset of that pattern set (monotonicity of detection).
func TestDetectionMonotoneInPatterns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(8, 60, seed)
		fsim, err := NewSimulator(c)
		if err != nil {
			return false
		}
		faults := Universe(c)
		small := logic.NewPatternSet(len(c.PIs), 32)
		small.RandFill(rng.Uint64)
		big := small.Clone()
		extra := logic.NewPatternSet(len(c.PIs), 32)
		extra.RandFill(rng.Uint64)
		for k := 0; k < extra.N; k++ {
			big.Append(extra.Pattern(k))
		}
		rs := fsim.Run(small, faults)
		rb := fsim.Run(big, faults)
		for i := range faults {
			if rs.DetectedBy[i] >= 0 && rb.DetectedBy[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
