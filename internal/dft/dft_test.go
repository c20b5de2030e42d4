package dft

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

func TestSelectSkipsIO(t *testing.T) {
	n := circuit.ArrayMultiplier(4)
	plan := SelectTestPoints(n, 5, 5)
	if len(plan.Observe) != 5 || len(plan.Control) != 5 {
		t.Fatalf("plan sizes %d/%d", len(plan.Observe), len(plan.Control))
	}
	isPO := map[int]bool{}
	for _, po := range n.POs {
		isPO[po] = true
	}
	for _, id := range plan.Observe {
		g := n.Gates[id]
		if g.Type == circuit.Input || isPO[id] {
			t.Errorf("observation point on PI/PO %s", g.Name)
		}
	}
	for _, cp := range plan.Control {
		if n.Gates[cp.Gate].Type == circuit.Input {
			t.Errorf("control point on PI")
		}
	}
}

func TestApplyPreservesFunction(t *testing.T) {
	// With control inputs at their neutral values, the transformed circuit
	// must compute the original function on the original outputs.
	for _, orig := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(5),
		circuit.Random(10, 120, 3),
	} {
		tp, plan, err := Insert(orig, 3, 3)
		if err != nil {
			t.Fatalf("%s: %v", orig.Name, err)
		}
		sOrig, sTP := newWide(t, orig), newWide(t, tp)
		neutral := nonControllingInputs(tp, plan)
		idxTP := tp.InputIndex()
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 64; trial++ {
			in := make([]bool, len(orig.PIs))
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			// Map original inputs by name into the transformed netlist.
			tpIn := append([]bool(nil), neutral...)
			for i, pi := range orig.PIs {
				g, ok := tp.GateByName(orig.Gates[pi].Name)
				if !ok {
					t.Fatalf("input %s lost", orig.Gates[pi].Name)
				}
				tpIn[idxTP[g.ID]] = in[i]
			}
			want := evalPattern(sOrig, in)
			got := evalPattern(sTP, tpIn)
			// The transformed netlist's first len(orig.POs) outputs are the
			// original ones (marked first by Apply).
			for o, po := range orig.POs {
				if got[tp.POs[o]] != want[po] {
					t.Fatalf("%s trial %d: output %d changed under neutral control", orig.Name, trial, o)
				}
			}
		}
	}
}

// newWide compiles n and returns a one-lane good-value simulator over it.
func newWide(t *testing.T, n *circuit.Netlist) *sim.Wide {
	t.Helper()
	c, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	return sim.NewWideCompiled(c, 1)
}

// evalPattern simulates one pattern and returns every gate's value.
func evalPattern(s *sim.Wide, bits []bool) []bool {
	pi := make([]logic.Word, len(bits))
	for i, v := range bits {
		if v {
			pi[i] = 1
		}
	}
	vals := s.BlockRange(pi, 0, 1)
	out := make([]bool, len(vals))
	for g := range out {
		out[g] = vals[s.C.Tpos[g]]&1 == 1
	}
	return out
}

func TestControlForcing(t *testing.T) {
	// Asserting a control input must force the spliced net.
	orig := circuit.ArrayMultiplier(4)
	tp, plan, err := Insert(orig, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := newWide(t, tp)
	idx := tp.InputIndex()
	rng := rand.New(rand.NewSource(9))
	for i, cp := range plan.Control {
		cpGate, _ := tp.GateByName(nameOfCP(i))
		tpGate, _ := tp.GateByName(orig.Gates[cp.Gate].Name + "_tp")
		forced := cp.Kind == ForceOne
		for trial := 0; trial < 16; trial++ {
			in := make([]bool, len(tp.PIs))
			for j := range in {
				in[j] = rng.Intn(2) == 1
			}
			in[idx[cpGate.ID]] = forced // assert the controlling value
			if got := evalPattern(s, in)[tpGate.ID]; got != forced {
				t.Fatalf("control point %d did not force net to %v", i, forced)
			}
		}
	}
}

func nameOfCP(i int) string { return "cp" + string(rune('0'+i)) }

func TestTestPointsImproveRandomCoverage(t *testing.T) {
	// The headline property: on a circuit with poor random testability,
	// test points raise random-pattern fault coverage of the original
	// fault sites.
	orig := circuit.Comparator(16) // wide AND tree: terrible observability
	tp, _, err := Insert(orig, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cov := func(c *circuit.Netlist) float64 {
		fsim, err := fault.NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		p := logic.NewPatternSet(len(c.PIs), 128)
		p.RandFill(rng.Uint64)
		return fsim.Run(p, fault.Universe(c)).Coverage
	}
	before, after := cov(orig), cov(tp)
	if after <= before {
		t.Errorf("test points did not improve random coverage: %.3f -> %.3f", before, after)
	}
}

func TestApplyValidatesPlan(t *testing.T) {
	n := circuit.MustC17()
	if _, err := Apply(n, Plan{Observe: []int{9999}}); err == nil {
		t.Error("out-of-range observation point must fail")
	}
	if _, err := Apply(n, Plan{Control: []ControlPoint{{Gate: -1}}}); err == nil {
		t.Error("out-of-range control point must fail")
	}
}

func TestInsertZeroPointsIsIdentity(t *testing.T) {
	orig := circuit.MustC17()
	tp, plan, err := Insert(orig, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Observe)+len(plan.Control) != 0 {
		t.Fatal("empty plan expected")
	}
	if tp.NumLogicGates() != orig.NumLogicGates() || len(tp.PIs) != len(orig.PIs) {
		t.Error("zero-point insertion changed the netlist")
	}
}

// nonControllingInputs returns the input assignment that neutralizes all
// control points (cp inputs at their non-controlling value), given the plan
// and the transformed netlist. Indices follow the transformed netlist's PI
// order.
func nonControllingInputs(transformed *circuit.Netlist, plan Plan) []bool {
	idx := transformed.InputIndex()
	out := make([]bool, len(transformed.PIs))
	for i, cp := range plan.Control {
		g, ok := transformed.GateByName(fmt.Sprintf("cp%d", i))
		if !ok {
			continue
		}
		// OR point: neutral value 0; AND point: neutral value 1.
		out[idx[g.ID]] = cp.Kind == ForceZero
	}
	return out
}
