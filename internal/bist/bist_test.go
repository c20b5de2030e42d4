package bist

import (
	"testing"

	"repro/internal/circuit"
)

// Period steps the register until the start state recurs and returns the
// cycle length (2^Length - 1 for a primitive polynomial). It is O(period),
// so only short registers are checked.
func (l *LFSR) Period() int {
	start := l.state
	n := 0
	for {
		l.Step()
		n++
		if l.state == start || n > 1<<uint(l.Length)+1 {
			return n
		}
	}
}

func TestLFSRMaximalPeriod(t *testing.T) {
	for _, length := range []int{4, 5, 6, 7, 8, 9, 10, 12, 16} {
		l, err := NewLFSR(length, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := 1<<uint(length) - 1
		if got := l.Period(); got != want {
			t.Errorf("length %d: period %d, want %d (polynomial not primitive?)", length, got, want)
		}
	}
}

func TestLFSRNeverZero(t *testing.T) {
	l, err := NewLFSR(8, 0) // zero seed must be coerced
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if l.Step() == 0 {
			t.Fatal("LFSR reached the all-zero state")
		}
	}
}

func TestLFSRUnknownLength(t *testing.T) {
	if _, err := NewLFSR(13, 1); err == nil {
		t.Error("unsupported length must fail")
	}
}

func TestLFSRDeterministic(t *testing.T) {
	a, _ := NewLFSR(16, 77)
	b, _ := NewLFSR(16, 77)
	for i := 0; i < 100; i++ {
		if a.Step() != b.Step() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPatternsBalanced(t *testing.T) {
	l, _ := NewLFSR(16, 3)
	p := l.Patterns(10, 256)
	if p.N != 256 || p.Inputs != 10 {
		t.Fatalf("pattern set shape %d/%d", p.N, p.Inputs)
	}
	ones := 0
	for k := 0; k < p.N; k++ {
		for i := 0; i < p.Inputs; i++ {
			if p.Get(k, i) {
				ones++
			}
		}
	}
	frac := float64(ones) / float64(p.N*p.Inputs)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("LFSR bit balance = %.3f", frac)
	}
}

func TestMISRSensitivity(t *testing.T) {
	// Signatures must differ when any single response bit flips.
	mkSig := func(flipAt int) uint64 {
		m, err := NewMISR(16, 5)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			row := []bool{k%2 == 0, k%3 == 0, k%5 == 0}
			if k == flipAt {
				row[1] = !row[1]
			}
			m.Absorb(row)
		}
		return m.Signature()
	}
	clean := mkSig(-1)
	for _, at := range []int{0, 10, 49} {
		if mkSig(at) == clean {
			t.Errorf("single-bit flip at %d aliased", at)
		}
	}
}

func TestRunBISTC17(t *testing.T) {
	res, err := Run(circuit.MustC17(), 16, 16, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < 0.99 {
		t.Errorf("c17 BIST coverage = %.3f", res.Coverage)
	}
	if res.Aliased > 0 {
		t.Errorf("aliasing on c17 with 16-bit MISR: %d", res.Aliased)
	}
	if res.GoodSignature == 0 {
		t.Error("suspicious zero signature")
	}
}

func TestRunBISTAliasingRareWithWideMISR(t *testing.T) {
	n := circuit.ArrayMultiplier(4)
	res, err := Run(n, 20, 20, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < 0.95 {
		t.Errorf("mul4 BIST coverage = %.3f", res.Coverage)
	}
	// Theoretical aliasing probability ~2^-20 per fault; zero expected.
	if float64(res.Aliased) > 0.01*float64(res.Detected)+1 {
		t.Errorf("aliased %d of %d detected", res.Aliased, res.Detected)
	}
}

func TestBISTCoverageGrowsWithPatterns(t *testing.T) {
	n := circuit.ArrayMultiplier(4)
	r16, err := Run(n, 16, 16, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	r256, err := Run(n, 16, 16, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if r256.Coverage < r16.Coverage {
		t.Errorf("coverage fell with more patterns: %.3f -> %.3f", r16.Coverage, r256.Coverage)
	}
}

func BenchmarkLFSRStep(b *testing.B) {
	l, _ := NewLFSR(32, 1)
	for i := 0; i < b.N; i++ {
		l.Step()
	}
}
