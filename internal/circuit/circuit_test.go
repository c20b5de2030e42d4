package circuit

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestAddGateBasics(t *testing.T) {
	n := New("t")
	if _, err := n.AddGate("a", Input); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGate("b", Input); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGate("y", Nand, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := n.MarkOutput("y"); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	g, ok := n.GateByName("y")
	if !ok || g.Type != Nand || len(g.Fanin) != 2 {
		t.Fatalf("gate y malformed: %+v", g)
	}
	a, _ := n.GateByName("a")
	if len(a.Fanout) != 1 || a.Fanout[0] != g.ID {
		t.Fatalf("fanout of a not maintained: %+v", a)
	}
}

func TestAddGateErrors(t *testing.T) {
	n := New("t")
	n.MustAddGate("a", Input)
	if _, err := n.AddGate("a", Input); err == nil {
		t.Error("duplicate name must fail")
	}
	if _, err := n.AddGate("y", And, "a", "missing"); err == nil {
		t.Error("unknown fanin must fail")
	}
	if _, err := n.AddGate("n", Not, "a", "a"); err == nil {
		t.Error("NOT with 2 fanins must fail")
	}
	if _, err := n.AddGate("z", And); err == nil {
		t.Error("AND with no fanin must fail")
	}
	if err := n.MarkOutput("nope"); err == nil {
		t.Error("unknown output must fail")
	}
}

func TestValidateRequiresIO(t *testing.T) {
	n := New("empty")
	if err := n.Validate(); err == nil {
		t.Error("netlist without PIs must fail validation")
	}
	n.MustAddGate("a", Input)
	if err := n.Validate(); err == nil {
		t.Error("netlist without POs must fail validation")
	}
}

func TestLevelize(t *testing.T) {
	n := MustC17()
	if err := n.Levelize(); err != nil {
		t.Fatal(err)
	}
	g22, _ := n.GateByName("G22")
	g10, _ := n.GateByName("G10")
	g1, _ := n.GateByName("G1")
	if g1.Level != 0 {
		t.Errorf("PI level = %d", g1.Level)
	}
	if g10.Level != 1 {
		t.Errorf("G10 level = %d, want 1", g10.Level)
	}
	if g22.Level != 3 {
		t.Errorf("G22 level = %d, want 3", g22.Level)
	}
	if n.Depth() != 4 {
		t.Errorf("depth = %d, want 4", n.Depth())
	}
	// Topological order property: every gate appears after all its fanins.
	pos := make(map[int]int)
	for i, id := range n.TopoOrder() {
		pos[id] = i
	}
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			if pos[f] >= pos[g.ID] {
				t.Errorf("gate %s before its fanin", g.Name)
			}
		}
	}
}

func TestParseBenchC17(t *testing.T) {
	n, err := ParseBenchString(C17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	if len(n.PIs) != 5 || len(n.POs) != 2 || n.NumLogicGates() != 6 {
		t.Fatalf("c17 shape wrong: %v", n.Stats())
	}
}

func TestParseBenchForwardRefs(t *testing.T) {
	src := `
OUTPUT(y)
y = NOT(mid)
mid = AND(a, b)
INPUT(a)
INPUT(b)
`
	n, err := ParseBenchString(src, "fwd")
	if err != nil {
		t.Fatal(err)
	}
	if n.NumLogicGates() != 2 {
		t.Fatalf("gates = %d", n.NumLogicGates())
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []string{
		"INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n",    // unknown gate type
		"INPUT(a)\nOUTPUT(y)\ny NOT(a)\n",       // missing '='
		"INPUT(a)\nOUTPUT(y)\ny = NOT(q)\n",     // undefined signal
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a,)\n",    // empty fanin
		"INPUT()\nOUTPUT(y)\ny = NOT(a)\n",      // empty input name
		"INPUT(a)\nOUTPUT(y)\ny = NOT a\n",      // malformed expression
		"INPUT(a)\nOUTPUT(z)\ny = NOT(a)\n",     // unknown output
		"INPUT(a)\na2 = INPUT(a)\ny = NOT(a)\n", // INPUT as gate keyword
	}
	for i, src := range cases {
		if _, err := ParseBenchString(src, "bad"); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	for _, c := range []*Netlist{MustC17(), RippleAdder(4), ALUSlice(4)} {
		var buf bytes.Buffer
		if err := c.WriteBench(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseBench(strings.NewReader(buf.String()), c.Name)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", c.Name, err, buf.String())
		}
		if back.NumLogicGates() != c.NumLogicGates() ||
			len(back.PIs) != len(c.PIs) || len(back.POs) != len(c.POs) {
			t.Errorf("%s: round trip changed shape: %v vs %v", c.Name, back.Stats(), c.Stats())
		}
	}
}

func TestGeneratorsValidate(t *testing.T) {
	for _, c := range BenchmarkSuite() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.NumLogicGates() == 0 {
			t.Errorf("%s: no gates", c.Name)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(10, 50, 42)
	b := Random(10, 50, 42)
	var bufA, bufB bytes.Buffer
	if err := a.WriteBench(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteBench(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Error("Random with same seed differs")
	}
	c := Random(10, 50, 43)
	var bufC bytes.Buffer
	if err := c.WriteBench(&bufC); err != nil {
		t.Fatal(err)
	}
	if bufA.String() == bufC.String() {
		t.Error("Random with different seed identical")
	}
}

func TestStats(t *testing.T) {
	s := MustC17().Stats()
	if s.PIs != 5 || s.POs != 2 || s.Gates != 6 {
		t.Errorf("stats = %+v", s)
	}
	if s.ByType[Nand] != 6 {
		t.Errorf("NAND count = %d", s.ByType[Nand])
	}
	if !strings.Contains(s.String(), "c17") {
		t.Errorf("stats string = %q", s.String())
	}
}

func TestGateTypeString(t *testing.T) {
	if And.String() != "AND" || Xnor.String() != "XNOR" {
		t.Error("gate type names wrong")
	}
	if tt, ok := ParseGateType("NOR"); !ok || tt != Nor {
		t.Error("ParseGateType(NOR) failed")
	}
	if _, ok := ParseGateType("BOGUS"); ok {
		t.Error("ParseGateType must reject unknown")
	}
}

// scoapOf returns gate id's (CC0, CC1, CO) from position-indexed measures.
func scoapOf(n *Netlist, s *SCOAP, id int) (int, int, int) {
	c, err := n.Compiled()
	if err != nil {
		panic(err)
	}
	p := c.Tpos[id]
	return s.CC0[p], s.CC1[p], s.CO[p]
}

func TestSCOAPC17(t *testing.T) {
	n := MustC17()
	s := ComputeSCOAP(n)
	for _, pi := range n.PIs {
		if cc0, cc1, _ := scoapOf(n, s, pi); cc0 != 1 || cc1 != 1 {
			t.Errorf("PI %s controllability = (%d,%d)", n.Gates[pi].Name, cc0, cc1)
		}
	}
	for _, po := range n.POs {
		if _, _, co := scoapOf(n, s, po); co != 0 {
			t.Errorf("PO %s observability = %d", n.Gates[po].Name, co)
		}
	}
	// NAND(a,b) with PI inputs: CC0 = CC1a+CC1b+1 = 3, CC1 = min(CC0)+1 = 2.
	g10, _ := n.GateByName("G10")
	if cc0, cc1, _ := scoapOf(n, s, g10.ID); cc0 != 3 || cc1 != 2 {
		t.Errorf("G10 controllability = (%d,%d), want (3,2)", cc0, cc1)
	}
}

func TestSCOAPMonotone(t *testing.T) {
	// Deeper signals must never be easier to control than 1 (the PI cost).
	for _, c := range []*Netlist{RippleAdder(8), ALUSlice(4), Random(12, 200, 7)} {
		s := ComputeSCOAP(c)
		for _, g := range c.Gates {
			cc0, cc1, co := scoapOf(c, s, g.ID)
			if cc0 < 1 || cc1 < 1 {
				t.Errorf("%s/%s: controllability below 1", c.Name, g.Name)
			}
			if co < 0 {
				t.Errorf("%s/%s: negative observability", c.Name, g.Name)
			}
		}
	}
}

func TestSCOAPXor(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(a, b)
`
	n, err := ParseBenchString(src, "x")
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeSCOAP(n)
	y, _ := n.GateByName("y")
	// XOR of two PIs: CC0 = min(1+1, 1+1)+1 = 3, CC1 = 3.
	if cc0, cc1, _ := scoapOf(n, s, y.ID); cc0 != 3 || cc1 != 3 {
		t.Errorf("XOR controllability = (%d,%d), want (3,3)", cc0, cc1)
	}
}

func TestCycleDetection(t *testing.T) {
	n := New("cyc")
	n.MustAddGate("a", Input)
	// Build a cycle manually (cannot be expressed via AddGate since fanin
	// must exist, so wire it up directly).
	g1 := &Gate{ID: 1, Name: "g1", Type: And}
	g2 := &Gate{ID: 2, Name: "g2", Type: And}
	g1.Fanin = []int{0, 2}
	g2.Fanin = []int{1}
	g1.Fanout = []int{2}
	g2.Fanout = []int{1}
	n.Gates = append(n.Gates, g1, g2)
	n.byName["g1"], n.byName["g2"] = 1, 2
	n.POs = []int{2}
	if err := n.Levelize(); err == nil {
		t.Error("cycle must be detected")
	}
}

func TestDecoder(t *testing.T) {
	d := Decoder(3)
	if len(d.POs) != 8 {
		t.Fatalf("decoder outputs = %d", len(d.POs))
	}
}

// evalNetlist computes all gate values for one input assignment, keyed by
// PI gate ID — a tiny reference evaluator for generator functional tests.
func evalNetlist(t *testing.T, n *Netlist, in map[int]bool) []bool {
	t.Helper()
	vals := make([]bool, len(n.Gates))
	for _, id := range n.TopoOrder() {
		g := n.Gates[id]
		if g.Type == Input {
			vals[id] = in[id]
			continue
		}
		var v bool
		switch g.Type {
		case Buf, DFF:
			v = vals[g.Fanin[0]]
		case Not:
			v = !vals[g.Fanin[0]]
		case And, Nand:
			v = true
			for _, f := range g.Fanin {
				v = v && vals[f]
			}
			v = v != (g.Type == Nand)
		case Or, Nor:
			for _, f := range g.Fanin {
				v = v || vals[f]
			}
			v = v != (g.Type == Nor)
		case Xor, Xnor:
			for _, f := range g.Fanin {
				v = v != vals[f]
			}
			v = v != (g.Type == Xnor)
		default:
			t.Fatalf("unexpected gate type %v", g.Type)
		}
		vals[id] = v
	}
	return vals
}

// TestDecoderPredecoded checks the two-level predecode structure used above
// width 8: fanins stay within the simulator bound and the outputs remain a
// correct one-hot decode of the select value.
func TestDecoderPredecoded(t *testing.T) {
	d := Decoder(11)
	if len(d.POs) != 2048 {
		t.Fatalf("decoder outputs = %d", len(d.POs))
	}
	for _, g := range d.Gates {
		if len(g.Fanin) > 8 {
			t.Fatalf("gate %s fanin %d exceeds simulator bound", g.Name, len(g.Fanin))
		}
	}
	for _, sel := range []int{0, 1, 1024, 1027, 2047} {
		in := map[int]bool{}
		for i := 0; i < 11; i++ {
			in[d.PIs[i]] = sel>>uint(i)&1 == 1
		}
		vals := evalNetlist(t, d, in)
		for v, po := range d.POs {
			if vals[po] != (v == sel) {
				t.Fatalf("sel=%d: output o%d = %v", sel, v, vals[po])
			}
		}
	}
}

// TestGatedParity checks the gated signature-monitor bank: each output must
// equal (parity of the unit's data inputs) AND (conjunction of its enables).
func TestGatedParity(t *testing.T) {
	const units, chain, enable = 3, 5, 9
	n := GatedParity(units, chain, enable)
	if len(n.POs) != units {
		t.Fatalf("outputs = %d, want %d", len(n.POs), units)
	}
	piPerUnit := chain + 1 + enable
	if len(n.PIs) != units*piPerUnit {
		t.Fatalf("inputs = %d, want %d", len(n.PIs), units*piPerUnit)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		in := map[int]bool{}
		for _, pi := range n.PIs {
			in[pi] = rng.Intn(2) == 1
		}
		// Bias some trials toward open enables so both AND outcomes occur.
		if trial%2 == 0 {
			for u := 0; u < units; u++ {
				for i := 0; i < enable; i++ {
					id, ok := n.GateByName(fmt.Sprintf("en%d_%d", u, i))
					if !ok {
						t.Fatal("missing enable input")
					}
					in[id.ID] = true
				}
			}
		}
		vals := evalNetlist(t, n, in)
		for u := 0; u < units; u++ {
			want := true
			for i := 0; i < enable; i++ {
				id, _ := n.GateByName(fmt.Sprintf("en%d_%d", u, i))
				want = want && in[id.ID]
			}
			parity := false
			for i := 0; i <= chain; i++ {
				id, _ := n.GateByName(fmt.Sprintf("d%d_%d", u, i))
				parity = parity != in[id.ID]
			}
			want = want && parity
			if vals[n.POs[u]] != want {
				t.Fatalf("trial %d unit %d: output %v, want %v", trial, u, vals[n.POs[u]], want)
			}
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"adder":   func() { RippleAdder(0) },
		"mul":     func() { ArrayMultiplier(1) },
		"parity":  func() { ParityTree(1) },
		"cmp":     func() { Comparator(0) },
		"alu":     func() { ALUSlice(0) },
		"random":  func() { Random(1, 10, 0) },
		"decoder": func() { Decoder(0) },
		"decwide": func() { Decoder(17) },
		"gparity": func() { GatedParity(0, 5, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on invalid size", name)
				}
			}()
			f()
		}()
	}
}
