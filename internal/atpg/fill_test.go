package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// fillBit must draw exactly what rng.Intn(2) draws: the fill stream is part
// of the output contract (see fillSeed), so a drift here would change every
// generated pattern set.
func TestFillBitMatchesIntn(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		a := rand.New(rand.NewSource(seed))
		b := rand.New(rand.NewSource(seed))
		for k := 0; k < 10000; k++ {
			if got, want := fillBit(a), b.Intn(2); got != logic.Word(want) {
				t.Fatalf("seed %d draw %d: fillBit %d, Intn(2) %d", seed, k, got, want)
			}
		}
	}
}

// appendCube must append the pattern Append(fillCube(cube, rng)) appends,
// from the same rng state, across word boundaries and into a set whose
// backing Reset left dirty; the bits above N stay zero, as Append leaves
// them.
func TestAppendCubeMatchesFillCube(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, inputs := range []int{1, 7, 70} {
		got := logic.NewPatternSet(inputs, 3*logic.WordBits)
		got.RandFill(rng.Uint64)
		got.Reset()
		want := logic.NewPatternSet(inputs, 0)
		cube := make([]logic.V, inputs)
		for k := 0; k < 2*logic.WordBits+5; k++ {
			for i := range cube {
				cube[i] = []logic.V{logic.V0, logic.V1, logic.VX}[rng.Intn(3)]
			}
			seed := rng.Int63()
			appendCube(got, cube, rand.New(rand.NewSource(seed)))
			want.Append(fillCube(cube, rand.New(rand.NewSource(seed))))
			if got.N != want.N {
				t.Fatalf("inputs %d: N = %d, want %d", inputs, got.N, want.N)
			}
			for i := range got.Bits {
				if len(got.Bits[i]) != len(want.Bits[i]) {
					t.Fatalf("inputs %d pattern %d: input %d has %d words, want %d", inputs, k, i, len(got.Bits[i]), len(want.Bits[i]))
				}
				for w := range want.Bits[i] {
					if g, x := got.Bits[i][w], want.Bits[i][w]; g != x {
						t.Fatalf("inputs %d pattern %d: input %d word %d = %#x, want %#x", inputs, k, i, w, g, x)
					}
				}
			}
		}
	}
}
