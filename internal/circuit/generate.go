package circuit

import (
	"fmt"
	"math/rand"
)

// RippleAdder builds an n-bit ripple-carry adder with inputs a0..a(n-1),
// b0..b(n-1), cin and outputs s0..s(n-1), cout.
func RippleAdder(n int) *Netlist {
	if n < 1 {
		panic("circuit: adder width must be >= 1")
	}
	c := New(fmt.Sprintf("rca%d", n))
	for i := 0; i < n; i++ {
		c.MustAddGate(fmt.Sprintf("a%d", i), Input)
		c.MustAddGate(fmt.Sprintf("b%d", i), Input)
	}
	c.MustAddGate("cin", Input)
	carry := "cin"
	for i := 0; i < n; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		p := fmt.Sprintf("p%d", i)  // propagate
		g := fmt.Sprintf("g%d", i)  // generate
		s := fmt.Sprintf("s%d", i)  // sum
		t := fmt.Sprintf("t%d", i)  // p & cin
		co := fmt.Sprintf("c%d", i) // carry out
		c.MustAddGate(p, Xor, a, b)
		c.MustAddGate(g, And, a, b)
		c.MustAddGate(s, Xor, p, carry)
		c.MustAddGate(t, And, p, carry)
		c.MustAddGate(co, Or, g, t)
		if err := c.MarkOutput(s); err != nil {
			panic(err)
		}
		carry = co
	}
	cout := c.MustAddGate("cout", Buf, carry)
	_ = cout
	if err := c.MarkOutput("cout"); err != nil {
		panic(err)
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// ArrayMultiplier builds an n×n-bit array multiplier with inputs a*, b* and
// outputs m0..m(2n-1).
func ArrayMultiplier(n int) *Netlist {
	if n < 2 {
		panic("circuit: multiplier width must be >= 2")
	}
	c := New(fmt.Sprintf("mul%d", n))
	for i := 0; i < n; i++ {
		c.MustAddGate(fmt.Sprintf("a%d", i), Input)
		c.MustAddGate(fmt.Sprintf("b%d", i), Input)
	}
	// Partial products pp_i_j = a_i & b_j.
	pp := make([][]string, n)
	for i := 0; i < n; i++ {
		pp[i] = make([]string, n)
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("pp_%d_%d", i, j)
			c.MustAddGate(name, And, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", j))
			pp[i][j] = name
		}
	}
	// Column-wise accumulation with full adders built from gates.
	cols := make([][]string, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cols[i+j] = append(cols[i+j], pp[i][j])
		}
	}
	uid := 0
	fullAdder := func(x, y, z string) (sum, carry string) {
		uid++
		s1 := fmt.Sprintf("fx%d", uid)
		sum = fmt.Sprintf("fs%d", uid)
		a1 := fmt.Sprintf("fa%d", uid)
		a2 := fmt.Sprintf("fb%d", uid)
		carry = fmt.Sprintf("fc%d", uid)
		c.MustAddGate(s1, Xor, x, y)
		c.MustAddGate(sum, Xor, s1, z)
		c.MustAddGate(a1, And, x, y)
		c.MustAddGate(a2, And, s1, z)
		c.MustAddGate(carry, Or, a1, a2)
		return sum, carry
	}
	halfAdder := func(x, y string) (sum, carry string) {
		uid++
		sum = fmt.Sprintf("hs%d", uid)
		carry = fmt.Sprintf("hc%d", uid)
		c.MustAddGate(sum, Xor, x, y)
		c.MustAddGate(carry, And, x, y)
		return sum, carry
	}
	for col := 0; col < 2*n; col++ {
		for len(cols[col]) > 1 {
			if len(cols[col]) >= 3 {
				s, cy := fullAdder(cols[col][0], cols[col][1], cols[col][2])
				cols[col] = append(cols[col][3:], s)
				if col+1 < 2*n {
					cols[col+1] = append(cols[col+1], cy)
				}
			} else {
				s, cy := halfAdder(cols[col][0], cols[col][1])
				cols[col] = append(cols[col][2:], s)
				if col+1 < 2*n {
					cols[col+1] = append(cols[col+1], cy)
				}
			}
		}
	}
	for col := 0; col < 2*n; col++ {
		out := fmt.Sprintf("m%d", col)
		if len(cols[col]) == 1 {
			c.MustAddGate(out, Buf, cols[col][0])
		} else {
			// Empty top column (can happen for col = 2n-1 with no carry).
			c.MustAddGate(out, And, pp[0][0], pp[0][0])
		}
		if err := c.MarkOutput(out); err != nil {
			panic(err)
		}
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// ParityTree builds an n-input XOR tree computing odd parity.
func ParityTree(n int) *Netlist {
	if n < 2 {
		panic("circuit: parity tree needs >= 2 inputs")
	}
	c := New(fmt.Sprintf("parity%d", n))
	layer := make([]string, n)
	for i := range layer {
		layer[i] = fmt.Sprintf("x%d", i)
		c.MustAddGate(layer[i], Input)
	}
	uid := 0
	for len(layer) > 1 {
		var next []string
		for i := 0; i+1 < len(layer); i += 2 {
			uid++
			name := fmt.Sprintf("px%d", uid)
			c.MustAddGate(name, Xor, layer[i], layer[i+1])
			next = append(next, name)
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
	}
	c.MustAddGate("parity", Buf, layer[0])
	if err := c.MarkOutput("parity"); err != nil {
		panic(err)
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// Comparator builds an n-bit equality comparator: eq = AND over XNOR(ai,bi).
func Comparator(n int) *Netlist {
	if n < 1 {
		panic("circuit: comparator width must be >= 1")
	}
	c := New(fmt.Sprintf("cmp%d", n))
	bits := make([]string, n)
	for i := 0; i < n; i++ {
		c.MustAddGate(fmt.Sprintf("a%d", i), Input)
		c.MustAddGate(fmt.Sprintf("b%d", i), Input)
		bits[i] = fmt.Sprintf("e%d", i)
		c.MustAddGate(bits[i], Xnor, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	// Balanced AND tree.
	uid := 0
	for len(bits) > 1 {
		var next []string
		for i := 0; i+1 < len(bits); i += 2 {
			uid++
			name := fmt.Sprintf("and%d", uid)
			c.MustAddGate(name, And, bits[i], bits[i+1])
			next = append(next, name)
		}
		if len(bits)%2 == 1 {
			next = append(next, bits[len(bits)-1])
		}
		bits = next
	}
	c.MustAddGate("eq", Buf, bits[0])
	if err := c.MarkOutput("eq"); err != nil {
		panic(err)
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// ALUSlice builds a small n-bit ALU (AND/OR/XOR/ADD selected by two control
// inputs) exercising reconvergent fanout, useful as a mid-size testbench.
func ALUSlice(n int) *Netlist {
	if n < 1 {
		panic("circuit: ALU width must be >= 1")
	}
	c := New(fmt.Sprintf("alu%d", n))
	for i := 0; i < n; i++ {
		c.MustAddGate(fmt.Sprintf("a%d", i), Input)
		c.MustAddGate(fmt.Sprintf("b%d", i), Input)
	}
	c.MustAddGate("op0", Input)
	c.MustAddGate("op1", Input)
	c.MustAddGate("nop0", Not, "op0")
	c.MustAddGate("nop1", Not, "op1")
	// One-hot select lines: s0=~op1~op0 (AND), s1=~op1 op0 (OR),
	// s2=op1~op0 (XOR), s3=op1 op0 (ADD).
	c.MustAddGate("s0", And, "nop1", "nop0")
	c.MustAddGate("s1", And, "nop1", "op0")
	c.MustAddGate("s2", And, "op1", "nop0")
	c.MustAddGate("s3", And, "op1", "op0")
	carry := "s3" // carry-in zero: AND with s3 keeps it masked; use constant trick
	// Build carry-in as a&~a = 0 equivalent: use XOR(a0,a0).
	c.MustAddGate("zero", Xor, "a0", "a0")
	carry = "zero"
	for i := 0; i < n; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		c.MustAddGate(fmt.Sprintf("andv%d", i), And, a, b)
		c.MustAddGate(fmt.Sprintf("orv%d", i), Or, a, b)
		c.MustAddGate(fmt.Sprintf("xorv%d", i), Xor, a, b)
		// full adder
		c.MustAddGate(fmt.Sprintf("sum%d", i), Xor, fmt.Sprintf("xorv%d", i), carry)
		c.MustAddGate(fmt.Sprintf("cg%d", i), And, fmt.Sprintf("xorv%d", i), carry)
		c.MustAddGate(fmt.Sprintf("cout%d", i), Or, fmt.Sprintf("andv%d", i), fmt.Sprintf("cg%d", i))
		carry = fmt.Sprintf("cout%d", i)
		// Mux via AND-OR with one-hot selects.
		c.MustAddGate(fmt.Sprintf("m0_%d", i), And, "s0", fmt.Sprintf("andv%d", i))
		c.MustAddGate(fmt.Sprintf("m1_%d", i), And, "s1", fmt.Sprintf("orv%d", i))
		c.MustAddGate(fmt.Sprintf("m2_%d", i), And, "s2", fmt.Sprintf("xorv%d", i))
		c.MustAddGate(fmt.Sprintf("m3_%d", i), And, "s3", fmt.Sprintf("sum%d", i))
		c.MustAddGate(fmt.Sprintf("m01_%d", i), Or, fmt.Sprintf("m0_%d", i), fmt.Sprintf("m1_%d", i))
		c.MustAddGate(fmt.Sprintf("m23_%d", i), Or, fmt.Sprintf("m2_%d", i), fmt.Sprintf("m3_%d", i))
		c.MustAddGate(fmt.Sprintf("y%d", i), Or, fmt.Sprintf("m01_%d", i), fmt.Sprintf("m23_%d", i))
		if err := c.MarkOutput(fmt.Sprintf("y%d", i)); err != nil {
			panic(err)
		}
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// Random builds a pseudo-random levelized netlist with nIn primary inputs
// and nGates logic gates. Gate types and fanin are drawn from seeded
// randomness, so the same arguments always yield the same circuit. All
// gates that end up with no fanout become primary outputs.
func Random(nIn, nGates int, seed int64) *Netlist {
	if nIn < 2 || nGates < 1 {
		panic("circuit: Random requires nIn >= 2 and nGates >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	c := New(fmt.Sprintf("rand_i%d_g%d_s%d", nIn, nGates, seed))
	signals := make([]string, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		name := fmt.Sprintf("i%d", i)
		c.MustAddGate(name, Input)
		signals = append(signals, name)
	}
	types := []GateType{And, Nand, Or, Nor, Xor, Xnor, Not, Buf}
	weights := []int{20, 20, 20, 20, 8, 8, 3, 1} // NAND/NOR-heavy like real logic
	totalW := 0
	for _, w := range weights {
		totalW += w
	}
	pick := func() GateType {
		r := rng.Intn(totalW)
		for i, w := range weights {
			if r < w {
				return types[i]
			}
			r -= w
		}
		return Nand
	}
	for g := 0; g < nGates; g++ {
		t := pick()
		fanin := 1
		if t != Not && t != Buf {
			fanin = 2 + rng.Intn(2) // 2- or 3-input gates
			if t == Xor || t == Xnor {
				fanin = 2
			}
		}
		// Fanins are distinct signals, so a 3-input gate over only two
		// signals (the first gate of a 2-PI circuit) takes both.
		fanin = min(fanin, len(signals))
		// Bias fanin selection toward recent signals to control depth while
		// still creating reconvergence.
		ins := make([]string, 0, fanin)
		used := map[string]bool{}
		for len(ins) < fanin {
			var idx int
			if rng.Float64() < 0.7 && len(signals) > nIn {
				lo := len(signals) - len(signals)/3 - 1
				idx = lo + rng.Intn(len(signals)-lo)
			} else {
				idx = rng.Intn(len(signals))
			}
			s := signals[idx]
			if used[s] {
				continue
			}
			used[s] = true
			ins = append(ins, s)
		}
		name := fmt.Sprintf("g%d", g)
		c.MustAddGate(name, t, ins...)
		signals = append(signals, name)
	}
	for _, g := range c.Gates {
		if len(g.Fanout) == 0 && g.Type != Input {
			if err := c.MarkOutput(g.Name); err != nil {
				panic(err)
			}
		}
	}
	if len(c.POs) == 0 {
		if err := c.MarkOutput(signals[len(signals)-1]); err != nil {
			panic(err)
		}
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// Decoder builds an n-to-2^n decoder. Widths above 8 use the standard
// two-level predecode structure: the select bits split into groups of up
// to 4, each group feeds a small one-hot predecoder, and every output AND
// combines one line from each group — keeping all gate fanins within the
// simulator's bound while the primary-output count grows exponentially.
func Decoder(n int) *Netlist {
	if n < 1 || n > 16 {
		panic("circuit: decoder select width must be in [1,16]")
	}
	c := New(fmt.Sprintf("dec%d", n))
	for i := 0; i < n; i++ {
		c.MustAddGate(fmt.Sprintf("s%d", i), Input)
		c.MustAddGate(fmt.Sprintf("ns%d", i), Not, fmt.Sprintf("s%d", i))
	}
	// lit returns the true or complemented select literal.
	lit := func(i int, one bool) string {
		if one {
			return fmt.Sprintf("s%d", i)
		}
		return fmt.Sprintf("ns%d", i)
	}
	// line materializes the one-hot predecode line for value v of the select
	// group [lo, lo+w); for single-literal groups it is the literal itself.
	line := func(lo, w, v int) string {
		if w == 1 {
			return lit(lo, v == 1)
		}
		name := fmt.Sprintf("p%d_%d", lo, v)
		if _, ok := c.GateByName(name); !ok {
			terms := make([]string, w)
			for i := 0; i < w; i++ {
				terms[i] = lit(lo+i, v>>uint(i)&1 == 1)
			}
			c.MustAddGate(name, And, terms...)
		}
		return name
	}
	// Group widths: direct literals up to n==8; predecoded groups of <=4
	// above, so output ANDs have fanin ceil(n/4) <= 4.
	groupW := 1
	if n > 8 {
		groupW = 4
	}
	for v := 0; v < 1<<uint(n); v++ {
		var terms []string
		for lo := 0; lo < n; lo += groupW {
			w := groupW
			if lo+w > n {
				w = n - lo
			}
			terms = append(terms, line(lo, w, v>>uint(lo)&(1<<uint(w)-1)))
		}
		out := fmt.Sprintf("o%d", v)
		if len(terms) == 1 {
			c.MustAddGate(out, Buf, terms[0])
		} else {
			c.MustAddGate(out, And, terms...)
		}
		if err := c.MarkOutput(out); err != nil {
			panic(err)
		}
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// GatedParity builds a bank of `units` independent signature monitors: each
// unit accumulates a chain of `chain` cascaded XOR stages over its own data
// inputs and drives its primary output through an AND with a wide
// (`enable`-input) enable conjunction. The structure models the classic
// random-pattern-resistant logic of bus monitors and MISR-style checkers
// behind address-decoded enables, and it is the adversarial case for
// per-pattern fault dropping: a fault in a chain is activated by roughly
// half of all patterns and its effect ripples through the remaining XOR
// stages (XOR never masks) only to be blocked at the enable gate, which a
// random fill opens with probability 2^-enable. Faults therefore stay live
// — and expensive to walk — for almost the entire pattern set, while each
// PODEM call resolves in the unit's small cone.
func GatedParity(units, chain, enable int) *Netlist {
	if units < 1 || chain < 2 || enable < 1 || enable > 16 {
		panic("circuit: gated parity needs units >= 1, chain >= 2, enable in [1,16]")
	}
	c := New(fmt.Sprintf("gparity%dx%d", units, chain))
	for u := 0; u < units; u++ {
		d := make([]string, chain+1)
		for i := range d {
			d[i] = fmt.Sprintf("d%d_%d", u, i)
			c.MustAddGate(d[i], Input)
		}
		en := make([]string, enable)
		for i := range en {
			en[i] = fmt.Sprintf("en%d_%d", u, i)
			c.MustAddGate(en[i], Input)
		}
		// Cascaded XOR chain: stage j folds data tap j+1 into the signature.
		prev := d[0]
		for j := 1; j <= chain; j++ {
			name := fmt.Sprintf("sig%d_%d", u, j)
			c.MustAddGate(name, Xor, prev, d[j])
			prev = name
		}
		// Enable conjunction, split to respect the simulator fanin bound.
		enName := fmt.Sprintf("en%d", u)
		if enable == 1 {
			enName = en[0]
		} else if enable <= 8 {
			c.MustAddGate(enName, And, en...)
		} else {
			lo := fmt.Sprintf("enlo%d", u)
			hi := fmt.Sprintf("enhi%d", u)
			c.MustAddGate(lo, And, en[:8]...)
			c.MustAddGate(hi, And, en[8:]...)
			c.MustAddGate(enName, And, lo, hi)
		}
		out := fmt.Sprintf("o%d", u)
		c.MustAddGate(out, And, prev, enName)
		if err := c.MarkOutput(out); err != nil {
			panic(err)
		}
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// BenchmarkSuite returns the standard set of circuits used by the
// experiment harness, keyed by short name, in a deterministic order.
func BenchmarkSuite() []*Netlist {
	return []*Netlist{
		MustC17(),
		RippleAdder(8),
		RippleAdder(16),
		ArrayMultiplier(4),
		ArrayMultiplier(8),
		ALUSlice(8),
		Comparator(16),
		ParityTree(16),
		Random(20, 300, 1),
		Random(32, 1200, 2),
	}
}
