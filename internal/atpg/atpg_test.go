package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// verifyCube checks that the generated cube really detects the fault by
// explicit good/faulty simulation of every don't-care completion... that is
// exponential, so instead we fill don't-cares with zeros and with ones and
// check detection by fault simulation (a valid test cube must detect the
// fault for *any* completion).
func verifyCube(t *testing.T, n *circuit.Netlist, f fault.Fault, cube []logic.V) {
	t.Helper()
	fsim, err := fault.NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	for fill := 0; fill < 2; fill++ {
		bits := make([]bool, len(cube))
		for i, v := range cube {
			switch v {
			case logic.V1:
				bits[i] = true
			case logic.V0:
				bits[i] = false
			default:
				bits[i] = fill == 1
			}
		}
		p := logic.NewPatternSet(len(n.PIs), 0)
		p.Append(bits)
		r := fsim.Run(p, []fault.Fault{f})
		if r.Detected != 1 {
			t.Errorf("%s: cube with fill=%d does not detect %s", n.Name, fill, f.Name(n))
		}
	}
}

func TestPODEMDetectsAllC17(t *testing.T) {
	n := circuit.MustC17()
	eng, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fault.Universe(n) {
		cube, status := eng.Generate(f)
		if status != Detected {
			t.Errorf("fault %s: status %v, want detected", f.Name(n), status)
			continue
		}
		verifyCube(t, n, f, cube)
	}
}

func TestPODEMAdder(t *testing.T) {
	n := circuit.RippleAdder(4)
	eng, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	faults := fault.Universe(n)
	for _, f := range faults {
		cube, status := eng.Generate(f)
		if status == Detected {
			detected++
			verifyCube(t, n, f, cube)
		}
	}
	if detected != len(faults) {
		t.Errorf("adder: PODEM detected %d of %d (adder is fully testable)", detected, len(faults))
	}
}

func TestPODEMProvesRedundancy(t *testing.T) {
	// y = OR(a, NOT(a)): y stuck-at-1 is redundant.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
na = NOT(a)
y = OR(a, na)
z = AND(y, b)
`
	n, err := circuit.ParseBenchString(src, "red")
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := New(n)
	y, _ := n.GateByName("y")
	_, status := eng.Generate(fault.Fault{Gate: y.ID, Pin: -1, SA: 1})
	if status != Redundant {
		t.Errorf("redundant fault classified %v", status)
	}
	// y stuck-at-0 is testable (z = b when y=1 normally, y=0 forces z=0).
	cube, status := eng.Generate(fault.Fault{Gate: y.ID, Pin: -1, SA: 0})
	if status != Detected {
		t.Fatalf("y/sa0 classified %v, want detected", status)
	}
	verifyCube(t, n, fault.Fault{Gate: y.ID, Pin: -1, SA: 0}, cube)
}

func TestGuideNaiveStillCorrect(t *testing.T) {
	n := circuit.ALUSlice(2)
	eng, _ := New(n)
	eng.Guide = GuideNaive
	faults := fault.Universe(n)
	for _, f := range faults[:40] {
		cube, status := eng.Generate(f)
		if status == Detected {
			verifyCube(t, n, f, cube)
		}
	}
}

func TestFullFlowCoverage(t *testing.T) {
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(8),
		circuit.ArrayMultiplier(4),
		circuit.Random(16, 200, 3),
	} {
		res, err := Run(c, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Efficiency < 0.99 {
			t.Errorf("%s: efficiency %.3f < 0.99 (cov %.3f, red %d, abort %d)",
				c.Name, res.Efficiency, res.Coverage, res.Redundant, res.Aborted)
		}
		if res.Patterns.N == 0 {
			t.Errorf("%s: no patterns generated", c.Name)
		}
		// Re-simulating the final pattern set must reproduce the coverage.
		fsim, _ := fault.NewSimulator(c)
		r := fsim.Run(res.Patterns, fault.Universe(c))
		if r.Detected != res.Detected {
			t.Errorf("%s: reported %d detected, resim %d", c.Name, res.Detected, r.Detected)
		}
	}
}

func TestCompactionReducesPatterns(t *testing.T) {
	c := circuit.RippleAdder(8)
	cfgNo := DefaultConfig()
	cfgNo.Compact = false
	resNo, err := Run(c, cfgNo)
	if err != nil {
		t.Fatal(err)
	}
	resYes, err := Run(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if resYes.Patterns.N > resNo.Patterns.N {
		t.Errorf("compaction grew pattern count: %d -> %d", resNo.Patterns.N, resYes.Patterns.N)
	}
	if resYes.Detected < resNo.Detected {
		t.Errorf("compaction lost coverage: %d -> %d", resNo.Detected, resYes.Detected)
	}
}

func TestCoverageCurveMonotone(t *testing.T) {
	c := circuit.ArrayMultiplier(4)
	res, err := Run(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, pt := range res.CoverageAt {
		if pt.Coverage < prev {
			t.Fatalf("coverage curve decreases at %d patterns", pt.Patterns)
		}
		prev = pt.Coverage
	}
	if prev != res.Coverage {
		t.Errorf("curve endpoint %.4f != final coverage %.4f", prev, res.Coverage)
	}
}

func TestRandomOnlyBaseline(t *testing.T) {
	c := circuit.ArrayMultiplier(4)
	res, err := RandomOnly(c, 256, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < 0.5 {
		t.Errorf("random coverage suspiciously low: %.3f", res.Coverage)
	}
	det, err := Run(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if det.Coverage < res.Coverage {
		t.Errorf("ATPG coverage %.3f below random %.3f", det.Coverage, res.Coverage)
	}
}

func TestDeterministicOnlyFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipRandom = true
	res, err := Run(circuit.MustC17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RandomPhase != 0 {
		t.Errorf("random phase ran despite SkipRandom")
	}
	if res.Coverage != 1.0 {
		t.Errorf("c17 deterministic coverage = %.3f", res.Coverage)
	}
}

func TestStatusString(t *testing.T) {
	if Detected.String() != "detected" || Redundant.String() != "redundant" || Aborted.String() != "aborted" {
		t.Error("status names wrong")
	}
}

// Property: for randomly chosen faults on random circuits, any cube PODEM
// returns is a genuine test (validated by fault simulation).
func TestPODEMPropertyRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		c := circuit.Random(10, 80, int64(trial+100))
		eng, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.Universe(c)
		for k := 0; k < 20; k++ {
			f := faults[rng.Intn(len(faults))]
			cube, status := eng.Generate(f)
			if status == Detected {
				verifyCube(t, c, f, cube)
			}
		}
	}
}

func BenchmarkPODEM(b *testing.B) {
	c := circuit.Random(20, 300, 1)
	eng, err := New(c)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Universe(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Generate(faults[i%len(faults)])
	}
}

func BenchmarkFullFlow(b *testing.B) {
	c := circuit.ArrayMultiplier(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTransitionATPG(t *testing.T) {
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(6),
		circuit.ArrayMultiplier(4),
	} {
		res, err := RunTransition(c, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		reached := float64(res.Detected+res.Untestable) / float64(res.TotalFaults)
		if reached < 0.95 {
			t.Errorf("%s: transition efficiency %.3f (cov %.3f, unt %d, abort %d)",
				c.Name, reached, res.Coverage, res.Untestable, res.Aborted)
		}
		// Re-simulating the final set must reproduce the claimed coverage.
		final, err := fault.SimulateTransitions(c, res.Patterns, fault.TransitionUniverse(c))
		if err != nil {
			t.Fatal(err)
		}
		if final.Detected != res.Detected {
			t.Errorf("%s: reported %d detected, resim %d", c.Name, res.Detected, final.Detected)
		}
	}
}

func TestTransitionATPGBeatsRandomPairs(t *testing.T) {
	c := circuit.ArrayMultiplier(4)
	rng := rand.New(rand.NewSource(2))
	p := logic.NewPatternSet(len(c.PIs), 64)
	p.RandFill(rng.Uint64)
	random, err := fault.SimulateTransitions(c, p, fault.TransitionUniverse(c))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RandomBlocks = 1
	det, err := RunTransition(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if det.Coverage < random.Coverage {
		t.Errorf("deterministic transition coverage %.3f below random %.3f",
			det.Coverage, random.Coverage)
	}
}

// TestPODEMExhaustiveOracle checks PODEM's verdicts against exhaustive
// simulation on random circuits small enough to enumerate (≤16 PIs), which
// are rich in redundant faults. With a backtrack limit high enough that
// nothing aborts, a fault must be proven Redundant exactly when no input
// pattern detects it, and every Detected cube must detect its target under
// any don't-care fill (sampled with 8 seeds).
func TestPODEMExhaustiveOracle(t *testing.T) {
	for _, c := range []*circuit.Netlist{
		circuit.Random(16, 250, 77),
		circuit.Random(14, 200, 5),
	} {
		nPI := len(c.PIs)
		all := logic.NewPatternSet(nPI, 0)
		bits := make([]bool, nPI)
		for k := 0; k < 1<<nPI; k++ {
			for i := range bits {
				bits[i] = k>>i&1 == 1
			}
			all.Append(bits)
		}
		faults := fault.Universe(c)
		fsim, err := fault.NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		exhaustive := fsim.Run(all, faults)

		eng, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		eng.BacktrackLim = 1 << 20
		redundant := 0
		one := logic.NewPatternSet(nPI, 0)
		for i, f := range faults {
			cube, status := eng.Generate(f)
			testable := exhaustive.DetectedBy[i] >= 0
			switch status {
			case Aborted:
				t.Fatalf("%s: %s aborted at backtrack limit %d", c.Name, f.Name(c), eng.BacktrackLim)
			case Redundant:
				redundant++
				if testable {
					t.Errorf("%s: %s classified redundant, but pattern %d detects it",
						c.Name, f.Name(c), exhaustive.DetectedBy[i])
				}
			case Detected:
				if !testable {
					t.Fatalf("%s: %s detected, but no pattern detects it", c.Name, f.Name(c))
				}
				for seed := int64(0); seed < 8; seed++ {
					rng := rand.New(rand.NewSource(seed))
					for j, v := range cube {
						bits[j] = v == logic.V1 || (v != logic.V0 && rng.Intn(2) == 1)
					}
					one.Reset()
					one.Append(bits)
					if fsim.Run(one, []fault.Fault{f}).Detected != 1 {
						t.Fatalf("%s: cube for %s with fill seed %d does not detect it", c.Name, f.Name(c), seed)
					}
				}
			}
		}
		if redundant == 0 {
			t.Fatalf("%s: no redundant faults; the oracle would not exercise the proof path", c.Name)
		}
	}
}
