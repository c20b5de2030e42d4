package core

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// evalGateBool evaluates one gate over plain booleans, one pattern at a time.
func evalGateBool(t circuit.GateType, in []bool) bool {
	switch t {
	case circuit.Buf:
		return in[0]
	case circuit.Not:
		return !in[0]
	case circuit.And, circuit.Nand:
		v := true
		for _, b := range in {
			v = v && b
		}
		return v != (t == circuit.Nand)
	case circuit.Or, circuit.Nor:
		v := false
		for _, b := range in {
			v = v || b
		}
		return v != (t == circuit.Nor)
	case circuit.Xor, circuit.Xnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		return v != (t == circuit.Xnor)
	}
	panic("unexpected gate type " + t.String())
}

// evalNetBool returns every gate's value under one input pattern. Under full
// scan a DFF output is a pseudo-PI, read from bits like a primary input.
func evalNetBool(n *circuit.Netlist, bits []bool) []bool {
	idx := n.InputIndex()
	vals := make([]bool, len(n.Gates))
	for _, id := range n.TopoOrder() {
		g := n.Gates[id]
		if g.Type == circuit.Input || g.Type == circuit.DFF {
			vals[id] = bits[idx[id]]
			continue
		}
		in := make([]bool, len(g.Fanin))
		for pin, f := range g.Fanin {
			in[pin] = vals[f]
		}
		vals[id] = evalGateBool(g.Type, in)
	}
	return vals
}

// workloadRef is the reference for WorkloadProfile: the same random
// workload sample, evaluated one pattern at a time. A gate's activity counts
// the patterns on which its value differs from the previous pattern's; the
// state before the first pattern is the all-zero input's.
func workloadRef(n *circuit.Netlist, patterns int, seed int64) (probHigh, activity []float64) {
	rng := rand.New(rand.NewSource(seed))
	p := logic.NewPatternSet(len(n.PIs), patterns)
	p.RandFill(rng.Uint64)
	ones := make([]int, len(n.Gates))
	toggles := make([]int, len(n.Gates))
	prev := evalNetBool(n, make([]bool, len(n.PIs)))
	for k := 0; k < p.N; k++ {
		cur := evalNetBool(n, p.Pattern(k))
		for g, v := range cur {
			if v {
				ones[g]++
			}
			if v != prev[g] {
				toggles[g]++
			}
		}
		prev = cur
	}
	probHigh = make([]float64, len(n.Gates))
	activity = make([]float64, len(n.Gates))
	for g := range probHigh {
		probHigh[g] = float64(ones[g]) / float64(p.N)
		activity[g] = float64(toggles[g]) / float64(p.N)
	}
	return probHigh, activity
}

// scanNetlist is a tiny full-scan netlist: q = DFF(d), y = AND(q, b),
// d = OR(a, q); q is a pseudo-PI and d a pseudo-PO.
func scanNetlist(t *testing.T) *circuit.Netlist {
	t.Helper()
	n, err := circuit.ParseBenchString(`
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(d)
q = DFF(d)
d = OR(a, q)
y = AND(q, b)
`, "scan")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWorkloadProfileMatchesReference pins WorkloadProfile's signal
// probability and toggle activity, exactly, to the per-pattern reference.
// The pattern counts straddle the tail mask and the carry between words.
func TestWorkloadProfileMatchesReference(t *testing.T) {
	for _, n := range []*circuit.Netlist{
		circuit.MustC17(),
		scanNetlist(t),
		circuit.Random(10, 120, 7),
	} {
		for _, patterns := range []int{1, 63, 64, 65, 130} {
			for _, seed := range []int64{1, 5} {
				probHigh, activity, err := WorkloadProfile(n, int64(patterns), seed)
				if err != nil {
					t.Fatal(err)
				}
				wantP, wantA := workloadRef(n, patterns, seed)
				for g := range wantP {
					if probHigh[g] != wantP[g] || activity[g] != wantA[g] {
						t.Fatalf("%s N=%d seed=%d gate %s: got (%v, %v), want (%v, %v)",
							n.Name, patterns, seed, n.Gates[g].Name,
							probHigh[g], activity[g], wantP[g], wantA[g])
					}
				}
			}
		}
	}
}

func TestWorkloadProfileRejectsEmptySample(t *testing.T) {
	for _, patterns := range []int64{0, -5} {
		probHigh, activity, err := WorkloadProfile(circuit.MustC17(), patterns, 1)
		if err == nil {
			t.Errorf("patterns=%d: got (%v, %v), want an error", patterns, probHigh, activity)
		}
	}
}

// TestActivityProfile checks WorkloadProfile against identities that hold
// for any pattern stream: an inverter toggles exactly when its input does
// and is high exactly when its input is low, a constant gate never toggles
// from the all-zero start state, and a random input toggles about half the
// time.
func TestActivityProfile(t *testing.T) {
	n, err := circuit.ParseBenchString(`
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(lo)
OUTPUT(hi)
na = NOT(a)
y = AND(a, b)
lo = AND(a, na)
hi = NAND(a, na)
`, "identities")
	if err != nil {
		t.Fatal(err)
	}
	id := func(name string) int {
		g, ok := n.GateByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		return g.ID
	}
	a, na, y, lo, hi := id("a"), id("na"), id("y"), id("lo"), id("hi")
	probHigh, activity, err := WorkloadProfile(n, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for g := range activity {
		if probHigh[g] < 0 || probHigh[g] > 1 || activity[g] < 0 || activity[g] > 1 {
			t.Errorf("gate %s out of range: probHigh %v, activity %v",
				n.Gates[g].Name, probHigh[g], activity[g])
		}
	}
	if activity[na] != activity[a] {
		t.Errorf("NOT activity %v, input activity %v: want equal", activity[na], activity[a])
	}
	if d := probHigh[na] + probHigh[a] - 1; d > 1e-12 || d < -1e-12 {
		t.Errorf("NOT probHigh %v + input probHigh %v != 1", probHigh[na], probHigh[a])
	}
	if probHigh[lo] != 0 || activity[lo] != 0 {
		t.Errorf("constant-0 gate: probHigh %v, activity %v, want 0, 0", probHigh[lo], activity[lo])
	}
	if probHigh[hi] != 1 || activity[hi] != 0 {
		t.Errorf("constant-1 gate: probHigh %v, activity %v, want 1, 0", probHigh[hi], activity[hi])
	}
	if activity[a] < 0.4 || activity[a] > 0.6 || probHigh[a] < 0.4 || probHigh[a] > 0.6 {
		t.Errorf("random input: probHigh %v, activity %v, want both ~0.5", probHigh[a], activity[a])
	}
	if probHigh[y] < 0.2 || probHigh[y] > 0.3 {
		t.Errorf("AND of two random inputs: probHigh %v, want ~0.25", probHigh[y])
	}
}
