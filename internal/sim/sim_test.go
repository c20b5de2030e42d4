package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/logic"
)

func TestEvalWords(t *testing.T) {
	a, b := logic.Word(0b1100), logic.Word(0b1010)
	cases := []struct {
		t    circuit.GateType
		in   []logic.Word
		want logic.Word
	}{
		{circuit.Buf, []logic.Word{a}, a},
		{circuit.Not, []logic.Word{a}, ^a},
		{circuit.And, []logic.Word{a, b}, a & b},
		{circuit.Nand, []logic.Word{a, b}, ^(a & b)},
		{circuit.Or, []logic.Word{a, b}, a | b},
		{circuit.Nor, []logic.Word{a, b}, ^(a | b)},
		{circuit.Xor, []logic.Word{a, b}, a ^ b},
		{circuit.Xnor, []logic.Word{a, b}, ^(a ^ b)},
		{circuit.And, []logic.Word{a, b, 0b1000}, a & b & 0b1000},
	}
	for _, c := range cases {
		if got := Eval(c.t, c.in); got != c.want {
			t.Errorf("Eval(%v) = %x, want %x", c.t, got, c.want)
		}
	}
}

// lane1 is a one-lane value buffer over a compiled netlist, the form every
// single-word caller drives Propagate through.
type lane1 struct {
	Net  *circuit.Netlist
	C    *circuit.Compiled
	vals []logic.Word
}

// newLane1 compiles n and returns a one-lane value buffer over it.
func newLane1(t testing.TB, n *circuit.Netlist) *lane1 {
	t.Helper()
	c, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	return &lane1{Net: n, C: c, vals: make([]logic.Word, c.NumGates())}
}

// run writes the PI words into the PI positions, propagates them and
// returns the value buffer, indexed by position.
func (s *lane1) run(pi []logic.Word) []logic.Word {
	copy(s.vals[:s.C.NumPIs()], pi)
	Propagate(s.C, s.vals, 1, 0, 1)
	return s.vals
}

// refGate evaluates one gate over plain booleans: the reference the
// simulator's word evaluators are checked against.
func refGate(t circuit.GateType, in []bool) bool {
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

// refValues returns every gate's value under one input pattern, evaluated
// gate by gate in topological order. Under full scan a DFF output is a
// pseudo-PI, read from bits like a primary input.
func refValues(n *circuit.Netlist, bits []bool) []bool {
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
		vals[id] = refGate(g.Type, in)
	}
	return vals
}

// response simulates every pattern of p word by word and returns the PO
// values bit-sliced like logic.PatternSet: r[po][word].
func response(s *lane1, p *logic.PatternSet) [][]logic.Word {
	r := make([][]logic.Word, len(s.Net.POs))
	for o := range r {
		r[o] = make([]logic.Word, p.Words())
	}
	pi := make([]logic.Word, len(s.Net.PIs))
	for w := range p.Words() {
		for i := range pi {
			pi[i] = p.Bits[i][w]
		}
		vals := s.run(pi)
		for o, po := range s.Net.POs {
			r[o][w] = vals[s.C.Tpos[po]]
		}
	}
	return r
}

// bit reads output o of pattern k from a response.
func bit(r [][]logic.Word, k, o int) bool {
	return r[o][k/logic.WordBits]>>uint(k%logic.WordBits)&1 == 1
}

// runPattern simulates one pattern given as bools and returns the PO values.
func runPattern(s *lane1, bits []bool) []bool {
	pi := make([]logic.Word, len(s.Net.PIs))
	for i, v := range bits {
		if v {
			pi[i] = 1
		}
	}
	vals := s.run(pi)
	out := make([]bool, len(s.Net.POs))
	for i, po := range s.Net.POs {
		out[i] = vals[s.C.Tpos[po]]&1 == 1
	}
	return out
}

// TestC17Truth verifies the simulator against c17's known function:
// G22 = NAND(G10,G16), etc., computed independently.
func TestC17Truth(t *testing.T) {
	n := circuit.MustC17()
	s := newLane1(t, n)
	ref := func(in []bool) (bool, bool) {
		g1, g2, g3, g6, g7 := in[0], in[1], in[2], in[3], in[4]
		nand := func(a, b bool) bool { return !(a && b) }
		g10 := nand(g1, g3)
		g11 := nand(g3, g6)
		g16 := nand(g2, g11)
		g19 := nand(g11, g7)
		return nand(g10, g16), nand(g16, g19)
	}
	p := logic.Exhaustive(5)
	r := response(s, p)
	for pat := 0; pat < p.N; pat++ {
		w22, w23 := ref(p.Pattern(pat))
		if bit(r, pat, 0) != w22 || bit(r, pat, 1) != w23 {
			t.Fatalf("pattern %05b: got (%v,%v), want (%v,%v)",
				pat, bit(r, pat, 0), bit(r, pat, 1), w22, w23)
		}
	}
}

// TestAdderArithmetic checks the ripple adder against integer addition over
// random operands, exercising multi-word pattern sets.
func TestAdderArithmetic(t *testing.T) {
	const w = 8
	n := circuit.RippleAdder(w)
	s := newLane1(t, n)
	rng := rand.New(rand.NewSource(3))
	p := logic.NewPatternSet(len(n.PIs), 200)
	type opnd struct{ a, b, cin int }
	ops := make([]opnd, 200)
	// PI order is a0,b0,a1,b1,...,cin as generated.
	idx := n.InputIndex()
	pin := func(name string) int {
		g, ok := n.GateByName(name)
		if !ok {
			t.Fatalf("missing input %s", name)
		}
		return idx[g.ID]
	}
	for k := range ops {
		ops[k] = opnd{rng.Intn(1 << w), rng.Intn(1 << w), rng.Intn(2)}
		for i := 0; i < w; i++ {
			p.Set(k, pin("a"+itoa(i)), ops[k].a>>uint(i)&1 == 1)
			p.Set(k, pin("b"+itoa(i)), ops[k].b>>uint(i)&1 == 1)
		}
		p.Set(k, pin("cin"), ops[k].cin == 1)
	}
	r := response(s, p)
	poIdx := map[string]int{}
	for i, po := range n.POs {
		poIdx[n.Gates[po].Name] = i
	}
	for k, op := range ops {
		want := op.a + op.b + op.cin
		got := 0
		for i := 0; i < w; i++ {
			if bit(r, k, poIdx["s"+itoa(i)]) {
				got |= 1 << uint(i)
			}
		}
		if bit(r, k, poIdx["cout"]) {
			got |= 1 << w
		}
		if got != want {
			t.Fatalf("pattern %d: %d+%d+%d = %d, simulator says %d", k, op.a, op.b, op.cin, want, got)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}

// TestMultiplierArithmetic validates the array multiplier on exhaustive 4x4.
func TestMultiplierArithmetic(t *testing.T) {
	const w = 4
	n := circuit.ArrayMultiplier(w)
	s := newLane1(t, n)
	idx := n.InputIndex()
	pin := func(name string) int {
		g, _ := n.GateByName(name)
		return idx[g.ID]
	}
	poIdx := map[string]int{}
	for i, po := range n.POs {
		poIdx[n.Gates[po].Name] = i
	}
	for a := 0; a < 1<<w; a++ {
		for b := 0; b < 1<<w; b++ {
			bits := make([]bool, len(n.PIs))
			for i := 0; i < w; i++ {
				bits[pin("a"+itoa(i))] = a>>uint(i)&1 == 1
				bits[pin("b"+itoa(i))] = b>>uint(i)&1 == 1
			}
			out := runPattern(s, bits)
			got := 0
			for i := 0; i < 2*w; i++ {
				if out[poIdx["m"+itoa(i)]] {
					got |= 1 << uint(i)
				}
			}
			if got != a*b {
				t.Fatalf("%d*%d = %d, simulator says %d", a, b, a*b, got)
			}
		}
	}
}

// TestPropagateMatchesReferenceOnPOs checks every primary output of 256
// random patterns, simulated word by word, against the per-pattern
// reference on fixed benchmark and random circuits.
func TestPropagateMatchesReferenceOnPOs(t *testing.T) {
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.ALUSlice(4),
		circuit.Random(12, 150, 5),
		circuit.Random(8, 60, 9),
	} {
		rng := rand.New(rand.NewSource(11))
		p := logic.NewPatternSet(len(c.PIs), 256)
		p.RandFill(rng.Uint64)
		r := response(newLane1(t, c), p)
		for k := 0; k < p.N; k++ {
			vals := refValues(c, p.Pattern(k))
			for o, po := range c.POs {
				if bit(r, k, o) != vals[po] {
					t.Fatalf("%s pattern %d output %d: simulator %v, reference %v",
						c.Name, k, o, bit(r, k, o), vals[po])
				}
			}
		}
	}
}

// Property: Propagate reads nothing of a reused buffer but its PI words.
// After any random walk of earlier patterns, a probe pattern gives the same
// outputs as on a fresh buffer and as the reference.
func TestPropagateStateless(t *testing.T) {
	c := circuit.Random(10, 100, 13)
	s := newLane1(t, c)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		row := make([]bool, len(c.PIs))
		for i := 0; i < 10; i++ {
			for j := range row {
				row[j] = rng.Intn(2) == 1
			}
			runPattern(s, row)
		}
		for j := range row {
			row[j] = rng.Intn(2) == 1
		}
		got := runPattern(s, row)
		fresh := runPattern(newLane1(t, c), row)
		ref := refValues(c, row)
		for o, po := range c.POs {
			if got[o] != fresh[o] || got[o] != ref[po] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropagatePanicsOnBadBuffer pins Propagate's argument checks: a
// buffer that is not NumGates()*S words long and a lane range outside
// [0, S) must each panic.
func TestPropagatePanicsOnBadBuffer(t *testing.T) {
	c, err := circuit.MustC17().Compiled()
	if err != nil {
		t.Fatal(err)
	}
	n := c.NumGates()
	for _, tc := range []struct {
		name           string
		len, S, lo, hi int
	}{
		{"short buffer", n - 1, 1, 0, 1},
		{"buffer of another stride", 2 * n, 1, 0, 1},
		{"empty range", 2 * n, 2, 1, 1},
		{"range past the stride", 2 * n, 2, 1, 3},
		{"negative lo", 2 * n, 2, -1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Propagate did not panic", tc.name)
				}
			}()
			Propagate(c, make([]logic.Word, tc.len), tc.S, tc.lo, tc.hi)
		}()
	}
}

func BenchmarkParallelSim(b *testing.B) {
	c := circuit.Random(32, 1200, 2)
	s := newLane1(b, c)
	rng := rand.New(rand.NewSource(1))
	p := logic.NewPatternSet(len(c.PIs), 1024)
	p.RandFill(rng.Uint64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		response(s, p)
	}
	b.ReportMetric(float64(1024), "patterns/op")
}

// BenchmarkPropagate times one Propagate on a stride-8 buffer over one lane
// (the fused scalar loop that staging a freshly committed ATPG pattern
// takes) and over all eight (FoldLanes in place), on the two circuits of the
// testgen workload.
func BenchmarkPropagate(b *testing.B) {
	for _, n := range []*circuit.Netlist{circuit.GatedParity(32, 60, 12), circuit.ArrayMultiplier(16)} {
		c, err := n.Compiled()
		if err != nil {
			b.Fatal(err)
		}
		vals := make([]logic.Word, c.NumGates()*MaxLanes)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < c.NumPIs()*MaxLanes; i++ {
			vals[i] = logic.Word(rng.Uint64())
		}
		for _, lanes := range []int{1, MaxLanes} {
			b.Run(fmt.Sprintf("%s/lanes=%d", n.Name, lanes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Propagate(c, vals, MaxLanes, 0, lanes)
				}
				gates := float64(c.NumGates() - c.NumPIs())
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*gates*float64(lanes)), "ns/gate-lane")
			})
		}
	}
}
