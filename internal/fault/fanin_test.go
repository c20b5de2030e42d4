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
	for _, po := range []string{"w", "p", "q", "y", "z"} {
		if err := n.MarkOutput(po); err != nil {
			panic(err)
		}
	}
	return n
}

// TestWideFaninMatchesFullResim pins every engine on gates wider than any
// fixed scratch bound: detection indices of Run and RunSerial and every
// dictionary signature word must equal a full re-simulation of the faulty
// circuit, for fanins well past 8 and at one and eight lanes.
func TestWideFaninMatchesFullResim(t *testing.T) {
	for _, k := range []int{9, 17, 33} {
		c := wideFaninCircuit(k)
		faults := Universe(c)
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
		wantDet := make([]int, len(faults))
		wantSig := make([][][]logic.Word, len(faults))
		pi := make([]logic.Word, len(c.PIs))
		for fi := range faults {
			wantDet[fi] = -1
			wantSig[fi] = make([][]logic.Word, len(c.POs))
			for o := range c.POs {
				wantSig[fi][o] = make([]logic.Word, p.Words())
			}
		}
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
				if any != 0 && wantDet[fi] < 0 {
					wantDet[fi] = w*logic.WordBits + bits.TrailingZeros64(any)
				}
			}
		}
		for _, words := range []int{1, 8} {
			fsim, err := NewSimulatorWords(c, words)
			if err != nil {
				t.Fatal(err)
			}
			run := fsim.Run(p, faults)
			serial := fsim.RunSerial(p, faults)
			dict := fsim.Dictionary(p, faults)
			for fi, f := range faults {
				if run.DetectedBy[fi] != wantDet[fi] || serial.DetectedBy[fi] != wantDet[fi] {
					t.Fatalf("fanin %d W=%d fault %s: Run %d, RunSerial %d, full resim %d",
						k, words, f.Name(c), run.DetectedBy[fi], serial.DetectedBy[fi], wantDet[fi])
				}
				for o := range c.POs {
					for w := range wantSig[fi][o] {
						if got := dict[fi].Bits[o][w]; got != wantSig[fi][o][w] {
							t.Fatalf("fanin %d W=%d fault %s: signature PO %d word %d = %x, full resim %x",
								k, words, f.Name(c), o, w, got, wantSig[fi][o][w])
						}
					}
				}
			}
		}
	}
}
