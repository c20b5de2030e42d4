package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Property: every lane Propagate writes equals, bit for bit, the
// per-pattern reference evaluator (refValues) run on each of that lane's 64
// patterns, for every stride and active-lane count — the strided layout
// cannot swap, shift or corrupt lanes. Also pins the staleness contract:
// lanes at index >= act keep their previous contents untouched.
func TestPropagateMatchesSingleWord(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := circuit.Random(4+rng.Intn(8), 30+rng.Intn(120), seed)
		c, err := circuit.Compile(n)
		if err != nil {
			return false
		}
		bits := make([]bool, len(n.PIs))
		for _, w := range []int{1, 2, 4, MaxLanes} {
			vals := make([]logic.Word, c.NumGates()*w)
			pi := make([]logic.Word, len(n.PIs)*w)
			for i := range pi {
				pi[i] = logic.Word(rng.Uint64())
			}
			// want[l][g] is gate g's word in lane l, one reference
			// evaluation per pattern bit.
			want := make([][]logic.Word, w)
			for l := range want {
				want[l] = make([]logic.Word, c.NumGates())
				for b := 0; b < logic.WordBits; b++ {
					for i := range bits {
						bits[i] = pi[i*w+l]>>uint(b)&1 == 1
					}
					for g, v := range refValues(n, bits) {
						if v {
							want[l][g] |= 1 << uint(b)
						}
					}
				}
			}
			for act := 1; act <= w; act++ {
				// Poison the stale lanes so the contract is observable.
				copy(vals, pi)
				for g := 0; g < c.NumGates(); g++ {
					for l := act; l < w; l++ {
						vals[g*w+l] = 0xdeadbeefdeadbeef
					}
				}
				Propagate(c, vals, w, 0, act)
				for l := 0; l < act; l++ {
					for g := 0; g < c.NumGates(); g++ {
						if vals[int(c.Tpos[g])*w+l] != want[l][g] {
							return false
						}
					}
				}
				for g := 0; g < c.NumGates(); g++ {
					for l := act; l < w; l++ {
						if vals[g*w+l] != 0xdeadbeefdeadbeef {
							return false // stale lane was written
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

// Property: FoldLanes agrees with Eval lane by lane for every gate type
// (and an out-of-range one), every fanin count from 1 to 33 with repeated
// fanin positions, strides 1, 2 and 8 and every lane window [lo, hi), with
// out aliasing the gate's own lanes in the buffer; it writes no word of the
// buffer outside that window.
func TestFoldLanesMatchesEval(t *testing.T) {
	const gate = 12 // the gate's position; fanins read positions [0, gate)
	rng := rand.New(rand.NewSource(9))
	types := []circuit.GateType{
		circuit.Buf, circuit.DFF, circuit.Not, circuit.And, circuit.Nand,
		circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.GateType(200),
	}
	for _, gt := range types {
		maxN := 33
		if gt.MaxFanin() >= 0 { // Buf, Not and DFF read one pin
			maxN = 1
		}
		for n := 1; n <= maxN; n++ {
			fanin := make([]int32, n)
			for pin := range fanin {
				fanin[pin] = int32(rng.Intn(gate))
			}
			fanin[n-1] = fanin[0] // one repeat at least, when n > 1
			for _, S := range []int{1, 2, MaxLanes} {
				init := make([]logic.Word, (gate+1)*S)
				for i := range init {
					init[i] = logic.Word(rng.Uint64())
				}
				vals := make([]logic.Word, len(init))
				in := make([]logic.Word, n)
				for lo := 0; lo < S; lo++ {
					for hi := lo + 1; hi <= S; hi++ {
						copy(vals, init)
						FoldLanes(gt, vals, fanin, S, lo, vals[gate*S+lo:gate*S+hi])
						for i, w := range vals {
							if l := i - gate*S; l >= lo && l < hi {
								for pin, f := range fanin {
									in[pin] = init[int(f)*S+l]
								}
								if want := Eval(gt, in); w != want {
									t.Fatalf("%v n=%d S=%d [%d,%d) lane %d: %#x, want %#x", gt, n, S, lo, hi, l, w, want)
								}
							} else if w != init[i] {
								t.Fatalf("%v n=%d S=%d [%d,%d): word %d outside the window changed", gt, n, S, lo, hi, i)
							}
						}
					}
				}
			}
		}
	}
}

// mixedCircuit builds a random netlist with every gate type, gates of fanin
// 9 to 33 next to narrow ones, repeated fanin nets, and scan DFFs whose
// outputs are pseudo-PIs and whose D sources are pseudo-POs.
func mixedCircuit(seed int64) *circuit.Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := circuit.New(fmt.Sprintf("mixed%d", seed))
	var sigs []string
	for i := 0; i < 4+rng.Intn(6); i++ {
		sigs = append(sigs, fmt.Sprintf("i%d", i))
		n.MustAddGate(sigs[len(sigs)-1], circuit.Input)
	}
	var dffs []string
	for i := 0; i < 2+rng.Intn(3); i++ {
		dffs = append(dffs, fmt.Sprintf("q%d", i))
		n.MustAddGate(dffs[i], circuit.DFF)
	}
	sigs = append(sigs, dffs...)
	types := []circuit.GateType{circuit.Buf, circuit.Not, circuit.And, circuit.Nand,
		circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor}
	for g := 0; g < 60+rng.Intn(60); g++ {
		t := types[g%len(types)]
		k := t.MaxFanin()
		if k < 0 {
			k = 2 + rng.Intn(3)
			if g < 2*len(types) || rng.Intn(6) == 0 {
				k = 9 + rng.Intn(25)
			}
		}
		fanin := make([]string, k)
		for pin := range fanin {
			fanin[pin] = sigs[rng.Intn(len(sigs))]
		}
		sigs = append(sigs, fmt.Sprintf("g%d", g))
		n.MustAddGate(sigs[len(sigs)-1], t, fanin...)
	}
	for _, q := range dffs {
		if err := n.ConnectScanD(q, sigs[len(sigs)-1-rng.Intn(20)]); err != nil {
			panic(err)
		}
	}
	for _, po := range sigs[len(sigs)-3:] {
		if err := n.MarkOutput(po); err != nil {
			panic(err)
		}
	}
	return n
}

// Property: the one-lane Propagate(lo, lo+1) computes, at every position,
// the word the multi-lane pass computes for lane lo, for every lane of
// W in {1, 2, 8}, and writes no other lane.
func TestPropagateOneLaneMatchesMultiLane(t *testing.T) {
	const poison = 0xdeadbeefdeadbeef
	for seed := int64(1); seed <= 12; seed++ {
		n := mixedCircuit(seed)
		c, err := circuit.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		widest := 0
		for _, g := range n.Gates {
			widest = max(widest, len(g.Fanin))
		}
		if widest <= 8 {
			t.Fatalf("seed %d: widest fanin %d, want a gate wider than 8", seed, widest)
		}
		rng := rand.New(rand.NewSource(seed))
		rv := make([]logic.Word, c.NumGates()*MaxLanes)
		for i := 0; i < c.NumPIs()*MaxLanes; i++ {
			rv[i] = logic.Word(rng.Uint64())
		}
		Propagate(c, rv, MaxLanes, 0, MaxLanes) // the multi-lane pass
		for _, w := range []int{1, 2, MaxLanes} {
			vals := make([]logic.Word, c.NumGates()*w)
			for lo := 0; lo < w; lo++ {
				for p := 0; p < c.NumGates(); p++ {
					for l := 0; l < w; l++ {
						vals[p*w+l] = poison
						if p < c.NumPIs() {
							vals[p*w+l] = rv[p*MaxLanes+l]
						}
					}
				}
				Propagate(c, vals, w, lo, lo+1)
				for p := c.NumPIs(); p < c.NumGates(); p++ {
					for l := 0; l < w; l++ {
						want := logic.Word(poison)
						if l == lo {
							want = rv[p*MaxLanes+l]
						}
						if got := vals[p*w+l]; got != want {
							t.Fatalf("seed %d W=%d lo=%d: position %d (%v) lane %d = %#x, want %#x",
								seed, w, lo, p, c.PosKind[p], l, got, want)
						}
					}
				}
			}
		}
	}
}
