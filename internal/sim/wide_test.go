package sim

import (
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
