package fault

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// wideFaninCircuit builds a circuit whose NAND, XOR and NOR gates each take
// all k primary inputs, so every input stem fans out to three wide gates,
// and the NAND output fans out again into two narrow gates and a PO.
func wideFaninCircuit(k int) *circuit.Netlist {
	n := circuit.New(fmt.Sprintf("fanin%d", k))
	xs := make([]string, k)
	for i := range xs {
		xs[i] = fmt.Sprintf("x%d", i)
		n.MustAddGate(xs[i], circuit.Input)
	}
	n.MustAddGate("b", circuit.Input)
	n.MustAddGate("c", circuit.Input)
	n.MustAddGate("w", circuit.Nand, xs...)
	n.MustAddGate("p", circuit.Xor, xs...)
	n.MustAddGate("q", circuit.Nor, xs...)
	n.MustAddGate("y", circuit.Or, "w", "b")
	n.MustAddGate("z", circuit.And, "w", "c")
	mustMarkOutputs(n, "w", "p", "q", "y", "z")
	return n
}

// scanCircuit is a full-scan netlist: the scan cell s is a pseudo-PI that
// feeds logic, and its D-source d is a pseudo-PO that also fans out.
func scanCircuit() *circuit.Netlist {
	n := circuit.New("scan")
	n.MustAddGate("a", circuit.Input)
	n.MustAddGate("b", circuit.Input)
	n.MustAddGate("s", circuit.DFF)
	n.MustAddGate("u", circuit.Nand, "a", "s")
	n.MustAddGate("d", circuit.Xor, "u", "b")
	n.MustAddGate("y", circuit.Or, "d", "s")
	if err := n.ConnectScanD("s", "d"); err != nil {
		panic(err)
	}
	mustMarkOutputs(n, "y")
	return n
}

// poFanoutCircuit has primary outputs that also drive further logic,
// including a PO chain g -> h -> k.
func poFanoutCircuit() *circuit.Netlist {
	n := circuit.New("pofanout")
	for _, in := range []string{"a", "b", "c", "e"} {
		n.MustAddGate(in, circuit.Input)
	}
	n.MustAddGate("g", circuit.And, "a", "b")
	n.MustAddGate("h", circuit.Or, "g", "c")
	n.MustAddGate("k", circuit.Xnor, "h", "g", "e")
	n.MustAddGate("m", circuit.Not, "h")
	mustMarkOutputs(n, "g", "h", "k", "m")
	return n
}

// repeatedFaninCircuit has gates that read one net on several pins:
// NAND(a,a,b) and XOR(c,b,c). Each pin is its own input branch, so a fault
// on pin 0 must not leak onto pin 1, and a fault on c flips both XOR pins,
// which cancel at the observed output y.
func repeatedFaninCircuit() *circuit.Netlist {
	n := circuit.New("repeated")
	for _, in := range []string{"a", "b", "c"} {
		n.MustAddGate(in, circuit.Input)
	}
	n.MustAddGate("x", circuit.Nand, "a", "a", "b")
	n.MustAddGate("y", circuit.Xor, "c", "b", "c")
	n.MustAddGate("z", circuit.Nor, "x", "a", "y")
	mustMarkOutputs(n, "x", "y", "z")
	return n
}

func mustMarkOutputs(n *circuit.Netlist, names ...string) {
	for _, po := range names {
		if err := n.MarkOutput(po); err != nil {
			panic(err)
		}
	}
}

// checkFullResim pins Run, RunSerial, Probe (after Stage) and Dictionary at
// each lane width against a full re-simulation of the faulty circuit, the
// oracle that shares no code with the event-driven walk: detection indices,
// per-fault liveness over the staged prefix, and every signature word.
func checkFullResim(t *testing.T, c *circuit.Netlist, p *logic.PatternSet, faults []Fault, widths []int) {
	t.Helper()
	wantDet := make([]int, len(faults))
	wantSig := make([][][]logic.Word, len(faults))
	for fi := range faults {
		wantDet[fi] = -1
		wantSig[fi] = make([][]logic.Word, len(c.POs))
		for o := range c.POs {
			wantSig[fi][o] = make([]logic.Word, p.Words())
		}
	}
	pi := make([]logic.Word, len(c.PIs))
	for w := 0; w < p.Words(); w++ {
		for i := range pi {
			pi[i] = p.Bits[i][w]
		}
		good := fullResim(c, nil, pi)
		mask := p.TailMask(w)
		for fi := range faults {
			bad := fullResim(c, &faults[fi], pi)
			var any logic.Word
			for o, po := range c.POs {
				d := (bad[po] ^ good[po]) & mask
				wantSig[fi][o][w] = d
				any |= d
			}
			if any != fullResimDiff(c, faults[fi], pi, good)&mask {
				t.Fatalf("%s: per-PO oracle disagrees with fullResimDiff", c.Name)
			}
			if any != 0 && wantDet[fi] < 0 {
				wantDet[fi] = w*logic.WordBits + bits.TrailingZeros64(any)
			}
		}
	}
	for _, words := range widths {
		fsim, err := New(c, Options{Words: words})
		if err != nil {
			t.Fatal(err)
		}
		run := fsim.Run(p, faults)
		serial := fsim.RunSerial(p, faults)
		dict := fsim.Dictionary(p, faults)
		staged := logic.NewPatternSet(len(c.PIs), 0)
		for k := 0; k < min(p.N, words*logic.WordBits); k++ {
			staged.Append(p.Pattern(k))
		}
		fsim.Stage(staged)
		for fi, f := range faults {
			if run.DetectedBy[fi] != wantDet[fi] || serial.DetectedBy[fi] != wantDet[fi] {
				t.Fatalf("%s N=%d W=%d fault %s: Run %d, RunSerial %d, full resim %d",
					c.Name, p.N, words, f.Name(c), run.DetectedBy[fi], serial.DetectedBy[fi], wantDet[fi])
			}
			if want := wantDet[fi] >= 0 && wantDet[fi] < staged.N; fsim.Probe(f) != want {
				t.Fatalf("%s N=%d W=%d fault %s: Probe over %d patterns %v, full resim %v",
					c.Name, p.N, words, f.Name(c), staged.N, !want, want)
			}
			for o := range c.POs {
				for w := range wantSig[fi][o] {
					if got := dict[fi].Bits[o][w]; got != wantSig[fi][o][w] {
						t.Fatalf("%s N=%d W=%d fault %s: signature PO %d word %d = %x, full resim %x",
							c.Name, p.N, words, f.Name(c), o, w, got, wantSig[fi][o][w])
					}
				}
			}
		}
	}
}

// TestWideFaninMatchesFullResim pins every engine on gates wider than any
// fixed scratch bound: fanins well past 8, at one and eight lanes.
func TestWideFaninMatchesFullResim(t *testing.T) {
	for _, k := range []int{9, 17, 33} {
		c := wideFaninCircuit(k)
		rng := rand.New(rand.NewSource(int64(k)))
		p := logic.NewPatternSet(len(c.PIs), 600)
		p.RandFill(rng.Uint64)
		// Bias half the words towards all-ones so the wide NAND and NOR
		// faults are actually excited.
		for i := range p.Bits {
			for w := 0; w < p.Words(); w += 2 {
				p.Bits[i][w] |= rng.Uint64() | rng.Uint64()
			}
		}
		checkFullResim(t, c, p, Universe(c), []int{1, 8})
	}
}

// TestEdgeCircuitsMatchFullResim pins the position-indexed walk on the
// shapes where its tables can go wrong: pseudo-PI fault sites and a
// D-source PO under full scan, POs with fanout, one net on several pins of
// a gate (distinct branch faults), a fanin wider than 8, and a DFF with
// structural fanin. Every
// uncollapsed fault is checked, at a set narrower than the widest lane
// group (100 patterns, 2 words) and at one wider than it (600, 10 words).
func TestEdgeCircuitsMatchFullResim(t *testing.T) {
	circuits := []*circuit.Netlist{scanCircuit(), poFanoutCircuit(), repeatedFaninCircuit(), wideFaninCircuit(9), dffFaninCircuit()}
	for _, c := range circuits {
		faults := AllFaults(c)
		for _, n := range []int{100, 600} {
			rng := rand.New(rand.NewSource(int64(n)))
			p := logic.NewPatternSet(len(c.PIs), n)
			p.RandFill(rng.Uint64)
			checkFullResim(t, c, p, faults, []int{1, 2, 8})
		}
	}
	// The repeated-fanin gate's pin-0 and pin-1 branch faults must both be
	// enumerated, so the oracle above compares them one by one.
	c := repeatedFaninCircuit()
	x, _ := c.GateByName("x")
	pins := map[int]bool{}
	for _, f := range AllFaults(c) {
		if f.Gate == x.ID && f.Pin >= 0 {
			pins[f.Pin] = true
		}
	}
	if !pins[0] || !pins[1] {
		t.Fatalf("NAND(a,a,b): branch-fault pins %v, want 0 and 1", pins)
	}
}
