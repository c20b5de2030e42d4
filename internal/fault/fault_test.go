package fault

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

func TestAllFaultsC17(t *testing.T) {
	n := circuit.MustC17()
	fs := AllFaults(n)
	// 11 signals * 2 stem faults = 22, plus branch faults on fanout stems:
	// G1(1), G2(1), G3(2), G6(1), G7(1), G10(1), G11(2), G16(2), G19(1):
	// gates with fanout>1: G3 (feeds G10,G11), G11 (G16,G19), G16 (G22,G23).
	// Branch faults: each consumer input pin fed by those stems gets 2.
	stems := 22
	branches := 0
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			if len(n.Gates[f].Fanout) > 1 {
				branches += 2
			}
		}
	}
	if len(fs) != stems+branches {
		t.Errorf("fault universe = %d, want %d", len(fs), stems+branches)
	}
}

// TestUniverseOrder checks the order Collapse promises to keep: faults
// ascend by gate, the stem (Pin -1) before its input branches, and
// stuck-at-0 before stuck-at-1, with no duplicates. Universe, which
// enumerates the collapsed list directly, must equal Collapse(AllFaults)
// in a slice of exactly its length.
func TestUniverseOrder(t *testing.T) {
	for _, n := range []*circuit.Netlist{circuit.MustC17(), circuit.Random(12, 80, 7), circuit.ArrayMultiplier(3),
		circuit.ALUSlice(4), circuit.Decoder(3), circuit.GatedParity(2, 3, 2)} {
		fs := Universe(n)
		if want := Collapse(n, AllFaults(n)); !slices.Equal(fs, want) || cap(fs) != len(want) {
			t.Fatalf("%s: Universe has %d faults (cap %d), Collapse(AllFaults) %d", n.Name, len(fs), cap(fs), len(want))
		}
		less := func(a, b Fault) bool {
			if a.Gate != b.Gate {
				return a.Gate < b.Gate
			}
			if a.Pin != b.Pin {
				return a.Pin < b.Pin
			}
			return a.SA < b.SA
		}
		for i := 1; i < len(fs); i++ {
			if !less(fs[i-1], fs[i]) {
				t.Fatalf("%s: fault %d (%v) does not follow %v", n.Name, i, fs[i], fs[i-1])
			}
		}
	}
}

func TestCollapseReduces(t *testing.T) {
	n := circuit.MustC17()
	all := AllFaults(n)
	col := Collapse(n, all)
	if len(col) >= len(all) {
		t.Errorf("collapsing did not reduce: %d -> %d", len(all), len(col))
	}
	// No NAND input sa0 may survive.
	for _, f := range col {
		if f.Pin >= 0 && n.Gates[f.Gate].Type == circuit.Nand && f.SA == 0 {
			t.Errorf("NAND input sa0 survived collapsing: %v", f)
		}
	}
}

func TestFaultString(t *testing.T) {
	n := circuit.MustC17()
	f := Fault{Gate: 5, Pin: -1, SA: 1}
	if f.String() == "" || f.Name(n) == "" {
		t.Error("empty fault rendering")
	}
	g22, _ := n.GateByName("G22")
	bf := Fault{Gate: g22.ID, Pin: 0, SA: 0}
	if got := bf.Name(n); got != "G22.G10/sa0" {
		t.Errorf("branch fault name = %q", got)
	}
}

// TestDetectionAgainstExplicit verifies PPSFP against an explicit faulty-
// circuit simulation: for each fault, rebuild the faulty function by brute
// force and compare detection per pattern.
func TestDetectionAgainstExplicit(t *testing.T) {
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(3),
		circuit.Random(8, 60, 21),
	} {
		fsim, err := NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		faults := Universe(c)
		p := logic.Exhaustive(len(c.PIs))
		if len(c.PIs) > 12 {
			rng := rand.New(rand.NewSource(5))
			p = logic.NewPatternSet(len(c.PIs), 256)
			p.RandFill(rng.Uint64)
		}
		res := fsim.Run(p, faults)
		idx := c.InputIndex()
		good := make([][]bool, p.N)
		for k := range good {
			good[k] = simulateGood(c, idx, p.Pattern(k))
		}
		for fi, f := range faults {
			// Explicit faulty simulation for every pattern.
			firstDet := -1
			for k := 0; k < p.N && firstDet < 0; k++ {
				out := simulateFaulty(c, idx, f, p.Pattern(k))
				for o, po := range c.POs {
					if out[o] != good[k][po] {
						firstDet = k
						break
					}
				}
			}
			if got := res.DetectedBy[fi]; (got < 0) != (firstDet < 0) {
				t.Fatalf("%s fault %s: PPSFP detect=%d, explicit=%d",
					c.Name, f.Name(c), got, firstDet)
			} else if got >= 0 && got != firstDet {
				t.Fatalf("%s fault %s: first detection %d, explicit %d",
					c.Name, f.Name(c), got, firstDet)
			}
		}
	}
}

// simulateFaulty evaluates the netlist with fault f injected, one pattern.
// idx is n.InputIndex(), built once per netlist by the caller.
func simulateFaulty(n *circuit.Netlist, idx map[int]int, f Fault, bits []bool) []bool {
	vals := make([]bool, len(n.Gates))
	force := f.SA == 1
	for _, id := range n.TopoOrder() {
		g := n.Gates[id]
		var v bool
		if g.Type == circuit.Input || g.Type == circuit.DFF {
			v = bits[idx[id]]
		} else {
			in := make([]bool, len(g.Fanin))
			for pin, fi := range g.Fanin {
				in[pin] = vals[fi]
				if id == f.Gate && pin == f.Pin {
					in[pin] = force
				}
			}
			v = evalBool(g.Type, in)
		}
		if id == f.Gate && f.Pin < 0 {
			v = force
		}
		vals[id] = v
	}
	out := make([]bool, len(n.POs))
	for i, po := range n.POs {
		out[i] = vals[po]
	}
	return out
}

func evalBool(t circuit.GateType, in []bool) bool {
	switch t {
	case circuit.Buf, circuit.DFF:
		return in[0]
	case circuit.Not:
		return !in[0]
	case circuit.And, circuit.Nand:
		v := true
		for _, b := range in {
			v = v && b
		}
		if t == circuit.Nand {
			return !v
		}
		return v
	case circuit.Or, circuit.Nor:
		v := false
		for _, b := range in {
			v = v || b
		}
		if t == circuit.Nor {
			return !v
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		if t == circuit.Xnor {
			return !v
		}
		return v
	}
	panic("bad gate")
}

func TestSerialMatchesParallel(t *testing.T) {
	c := circuit.ALUSlice(4)
	fsim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := Universe(c)
	rng := rand.New(rand.NewSource(17))
	p := logic.NewPatternSet(len(c.PIs), 100)
	p.RandFill(rng.Uint64)
	par := fsim.Run(p, faults)
	ser := fsim.RunSerial(p, faults)
	if par.Detected != ser.Detected {
		t.Fatalf("parallel detected %d, serial %d", par.Detected, ser.Detected)
	}
	for i := range faults {
		if par.DetectedBy[i] != ser.DetectedBy[i] {
			t.Errorf("fault %v: parallel first=%d serial first=%d",
				faults[i], par.DetectedBy[i], ser.DetectedBy[i])
		}
	}
}

func TestExhaustiveCoverageC17(t *testing.T) {
	c := circuit.MustC17()
	fsim, _ := NewSimulator(c)
	faults := Universe(c)
	res := fsim.Run(logic.Exhaustive(5), faults)
	// c17 is fully testable: exhaustive patterns must detect all collapsed
	// faults.
	if res.Coverage != 1.0 {
		var missed []string
		for i, d := range res.DetectedBy {
			if d < 0 {
				missed = append(missed, faults[i].Name(c))
			}
		}
		t.Errorf("c17 exhaustive coverage = %.3f, undetected: %v", res.Coverage, missed)
	}
}

func TestDictionaryConsistentWithRun(t *testing.T) {
	c := circuit.MustC17()
	fsim, _ := NewSimulator(c)
	faults := Universe(c)
	p := logic.Exhaustive(5)
	res := fsim.Run(p, faults)
	dict := fsim.Dictionary(p, faults)
	for i := range faults {
		detected := res.DetectedBy[i] >= 0
		hasFails := dict[i].FailBits() > 0
		if detected != hasFails {
			t.Errorf("fault %v: run detected=%v, dictionary fails=%d",
				faults[i], detected, dict[i].FailBits())
		}
	}
}

func TestDictionaryFirstFailMatches(t *testing.T) {
	c := circuit.RippleAdder(3)
	fsim, _ := NewSimulator(c)
	faults := Universe(c)
	p := logic.Exhaustive(len(c.PIs))
	res := fsim.Run(p, faults)
	dict := fsim.Dictionary(p, faults)
	for i := range faults {
		if res.DetectedBy[i] < 0 {
			continue
		}
		// First failing pattern in the dictionary must equal DetectedBy.
		first := -1
		for k := 0; k < p.N; k++ {
			w, b := k/logic.WordBits, uint(k%logic.WordBits)
			for o := range dict[i].Bits {
				if dict[i].Bits[o][w]>>b&1 == 1 {
					first = k
					break
				}
			}
			if first >= 0 {
				break
			}
		}
		if first != res.DetectedBy[i] {
			t.Errorf("fault %v: dictionary first fail %d, run says %d",
				faults[i], first, res.DetectedBy[i])
		}
	}
}

func TestUndetectableRedundantFault(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1: y/sa1 is undetectable.
	src := `
INPUT(a)
OUTPUT(y)
na = NOT(a)
y = OR(a, na)
`
	c, err := circuit.ParseBenchString(src, "taut")
	if err != nil {
		t.Fatal(err)
	}
	fsim, _ := NewSimulator(c)
	y, _ := c.GateByName("y")
	faults := []Fault{{Gate: y.ID, Pin: -1, SA: 1}}
	res := fsim.Run(logic.Exhaustive(1), faults)
	if res.Detected != 0 {
		t.Error("redundant sa1 on constant-1 output reported detected")
	}
}

func BenchmarkPPSFP(b *testing.B) {
	c := circuit.Random(32, 1200, 2)
	fsim, err := NewSimulator(c)
	if err != nil {
		b.Fatal(err)
	}
	faults := Universe(c)
	rng := rand.New(rand.NewSource(1))
	p := logic.NewPatternSet(len(c.PIs), 256)
	p.RandFill(rng.Uint64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsim.Run(p, faults)
	}
	b.ReportMetric(float64(len(faults)), "faults/op")
}

func TestConcurrentMatchesSerial(t *testing.T) {
	c := circuit.Random(16, 300, 8)
	faults := Universe(c)
	rng := rand.New(rand.NewSource(4))
	p := logic.NewPatternSet(len(c.PIs), 192)
	p.RandFill(rng.Uint64)
	fsim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	want := fsim.Run(p, faults)
	for _, workers := range []int{0, 1, 2, 4, 7} {
		got, err := RunConcurrent(c, p, faults, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Detected != want.Detected {
			t.Fatalf("workers=%d: detected %d, want %d", workers, got.Detected, want.Detected)
		}
		for i := range faults {
			if got.DetectedBy[i] != want.DetectedBy[i] {
				t.Fatalf("workers=%d fault %d: first pattern %d, want %d",
					workers, i, got.DetectedBy[i], want.DetectedBy[i])
			}
		}
	}
}

func TestConcurrentMoreWorkersThanFaults(t *testing.T) {
	c := circuit.MustC17()
	faults := Universe(c)[:3]
	got, err := RunConcurrent(c, logic.Exhaustive(5), faults, Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != 3 {
		t.Errorf("total = %d", got.Total)
	}
}
