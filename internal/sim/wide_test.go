package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Property: every lane of a Wide block equals, bit for bit, the per-pattern
// reference evaluator (refValues) run on each of that lane's 64 patterns,
// for every width and active-lane count — the strided layout cannot swap,
// shift or corrupt lanes. Also pins the staleness contract:
// lanes at index >= act keep their previous contents untouched.
func TestWideMatchesSingleWord(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := circuit.Random(4+rng.Intn(8), 30+rng.Intn(120), seed)
		c, err := circuit.Compile(n)
		if err != nil {
			return false
		}
		bits := make([]bool, len(n.PIs))
		for _, w := range []int{1, 2, 4, MaxLanes} {
			ws := NewWideCompiled(c, w)
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
				vals := ws.Values()
				for g := 0; g < c.NumGates(); g++ {
					for l := act; l < w; l++ {
						vals[g*w+l] = 0xdeadbeefdeadbeef
					}
				}
				got := ws.BlockRange(pi, 0, act)
				for l := 0; l < act; l++ {
					for g := 0; g < c.NumGates(); g++ {
						if got[int(c.Tpos[g])*w+l] != want[l][g] {
							return false
						}
					}
				}
				for g := 0; g < c.NumGates(); g++ {
					for l := act; l < w; l++ {
						if got[g*w+l] != 0xdeadbeefdeadbeef {
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

// Property: EvalLanes agrees with Eval lane by lane for every gate type and
// fanin count the compiler admits.
func TestEvalLanesMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	types := []circuit.GateType{
		circuit.Buf, circuit.Not, circuit.And, circuit.Nand,
		circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor,
	}
	for _, gt := range types {
		maxN := 4
		if gt == circuit.Buf || gt == circuit.Not {
			maxN = 1
		} else if gt == circuit.Xor || gt == circuit.Xnor {
			maxN = 2
		}
		for n := 1; n <= maxN; n++ {
			if (gt == circuit.Xor || gt == circuit.Xnor) && n < 2 {
				continue
			}
			for act := 1; act <= MaxLanes; act++ {
				in := make([]logic.Word, n*act)
				for i := range in {
					in[i] = logic.Word(rng.Uint64())
				}
				out := make([]logic.Word, act)
				EvalLanes(gt, in, n, act, out)
				lane := make([]logic.Word, n)
				for l := 0; l < act; l++ {
					for p := 0; p < n; p++ {
						lane[p] = in[p*act+l]
					}
					if want := Eval(gt, lane); out[l] != want {
						t.Fatalf("%v n=%d act=%d lane %d: %x != %x", gt, n, act, l, out[l], want)
					}
				}
			}
		}
	}
}

// TestWideRestride drives one Wide through a sequence of strides, as the
// fault simulator does when a run alternates staging and lane groups. After
// each Restride a whole-block BlockRange must equal a fresh simulator of
// that width, and a stride that fits the buffer must not reallocate it.
func TestWideRestride(t *testing.T) {
	c, err := circuit.Random(12, 300, 5).Compiled()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ws := NewWideCompiled(c, MaxLanes)
	backing := &ws.Values()[0]
	for _, w := range []int{1, 2, MaxLanes, 4, 1, 2} {
		ws.Restride(w)
		if &ws.Values()[0] != backing {
			t.Fatalf("Restride(%d) reallocated the value buffer", w)
		}
		pi := make([]logic.Word, c.NumPIs()*w)
		for i := range pi {
			pi[i] = logic.Word(rng.Uint64())
		}
		got := ws.BlockRange(pi, 0, w)
		want := NewWideCompiled(c, w).BlockRange(pi, 0, w)
		if len(got) != len(want) {
			t.Fatalf("stride %d: %d values, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stride %d: value %d = %x, want %x", w, i, got[i], want[i])
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
		if c.MaxFanin <= 8 {
			t.Fatalf("seed %d: MaxFanin %d, want a gate wider than 8", seed, c.MaxFanin)
		}
		rng := rand.New(rand.NewSource(seed))
		ref := NewWideCompiled(c, MaxLanes)
		rv := ref.Values()
		for i := 0; i < c.NumPIs()*MaxLanes; i++ {
			rv[i] = logic.Word(rng.Uint64())
		}
		ref.Propagate(0, MaxLanes) // the multi-lane pass
		for _, w := range []int{1, 2, MaxLanes} {
			s := NewWideCompiled(c, w)
			for lo := 0; lo < w; lo++ {
				vals := s.Values()
				for p := 0; p < c.NumGates(); p++ {
					for l := 0; l < w; l++ {
						vals[p*w+l] = poison
						if p < c.NumPIs() {
							vals[p*w+l] = rv[p*MaxLanes+l]
						}
					}
				}
				s.Propagate(lo, lo+1)
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
