package circuit

import "testing"

// refSCOAP is the SCOAP oracle: CC0/CC1/CO per gate ID, computed by
// memoized recursion over the netlist's own gate slices (Fanin for
// controllability, Fanout for observability). It shares no code or table
// with Compiled or ComputeSCOAPCompiled.
type refSCOAP struct {
	n             *Netlist
	cc0, cc1, co  []int
	doneCC, doneO []bool
	isPO          []bool
}

const refInf = 1 << 28 // an unobservable line's CO

func newRefSCOAP(n *Netlist) *refSCOAP {
	ng := len(n.Gates)
	r := &refSCOAP{
		n: n, cc0: make([]int, ng), cc1: make([]int, ng), co: make([]int, ng),
		doneCC: make([]bool, ng), doneO: make([]bool, ng), isPO: make([]bool, ng),
	}
	for _, po := range n.POs {
		r.isPO[po] = true
	}
	return r
}

// cc returns gate id's (CC0, CC1).
func (r *refSCOAP) cc(id int) (int, int) {
	if r.doneCC[id] {
		return r.cc0[id], r.cc1[id]
	}
	g := r.n.Gates[id]
	var c0, c1 int
	switch g.Type {
	case Input, DFF:
		c0, c1 = 1, 1
	case Buf, Not:
		f0, f1 := r.cc(g.Fanin[0])
		c0, c1 = f0+1, f1+1
		if g.Type == Not {
			c0, c1 = c1, c0
		}
	case And, Nand:
		// Output 1 needs every input at 1, output 0 any input at 0.
		sum1, min0 := 1, refInf
		for _, f := range g.Fanin {
			f0, f1 := r.cc(f)
			sum1 += f1
			min0 = min(min0, f0)
		}
		c0, c1 = min0+1, sum1
	case Or, Nor:
		// Output 0 needs every input at 0, output 1 any input at 1.
		sum0, min1 := 1, refInf
		for _, f := range g.Fanin {
			f0, f1 := r.cc(f)
			sum0 += f0
			min1 = min(min1, f1)
		}
		c0, c1 = sum0, min1+1
	case Xor, Xnor:
		// Parity folded one input at a time.
		c0, c1 = r.cc(g.Fanin[0])
		for _, f := range g.Fanin[1:] {
			f0, f1 := r.cc(f)
			c0, c1 = min(c0+f0, c1+f1), min(c1+f0, c0+f1)
		}
		c0, c1 = c0+1, c1+1
	}
	if g.Type == Nand || g.Type == Nor || g.Type == Xnor {
		c0, c1 = c1, c0
	}
	r.cc0[id], r.cc1[id], r.doneCC[id] = c0, c1, true
	return c0, c1
}

// obs returns gate id's CO: 0 at a PO, else the cheapest way through any
// fanout pin it drives, with every side input of that gate set to its
// non-controlling value (either value for XOR/XNOR).
func (r *refSCOAP) obs(id int) int {
	if r.doneO[id] {
		return r.co[id]
	}
	best := refInf
	if r.isPO[id] {
		best = 0
	}
	for _, fo := range r.n.Gates[id].Fanout {
		g := r.n.Gates[fo]
		up := r.obs(fo)
		if up == refInf {
			continue
		}
		for pin, f := range g.Fanin {
			if f != id {
				continue
			}
			cost := up + 1
			for side, s := range g.Fanin {
				if side == pin {
					continue
				}
				s0, s1 := r.cc(s)
				switch g.Type {
				case And, Nand:
					cost += s1
				case Or, Nor:
					cost += s0
				case Xor, Xnor:
					cost += min(s0, s1)
				}
			}
			best = min(best, cost)
		}
	}
	r.co[id], r.doneO[id] = best, true
	return best
}

// TestSCOAPMatchesReference requires ComputeSCOAP to equal the recursive
// oracle exactly, on every gate of the benchmark suite (which includes
// Random(32,1200,2)) and of the full-scan s27 netlist (DFF outputs are
// pseudo-PIs, DFF D-sources pseudo-POs).
func TestSCOAPMatchesReference(t *testing.T) {
	scan, err := ParseBenchString(s27, "s27")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range append(BenchmarkSuite(), scan) {
		s := ComputeSCOAP(n)
		ref := newRefSCOAP(n)
		bad := 0
		for id := range n.Gates {
			c0, c1 := ref.cc(id)
			co := ref.obs(id)
			g0, g1, gco := scoapOf(n, s, id)
			if g0 != c0 || g1 != c1 || gco != co {
				if bad++; bad <= 5 {
					t.Errorf("%s: gate %s: (CC0, CC1, CO) = (%d, %d, %d), reference (%d, %d, %d)",
						n.Name, n.Gates[id].Name, g0, g1, gco, c0, c1, co)
				}
			}
		}
	}
}
