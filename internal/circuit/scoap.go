package circuit

// SCOAP implements the Sandia Controllability/Observability Analysis
// Program testability measures (Goldstein 1979). CC0/CC1 estimate the
// minimum number of line assignments required to set a signal to 0/1; CO
// estimates the effort to observe a signal at a primary output. The ATPG
// backtrace uses these measures to pick the cheapest input to justify an
// objective, and they also serve as topological features for the ML models.
//
// The measures are stored by topological position, like every engine's
// per-gate state: gate id's CC0 is CC0[c.Tpos[id]] for the netlist's
// compiled IR c.
type SCOAP struct {
	CC0 []int // controllability to 0, per position
	CC1 []int // controllability to 1, per position
	CO  []int // observability, per position
}

const scoapInf = 1 << 28

// ComputeSCOAP calculates the combinational SCOAP measures for the netlist.
// It panics when the netlist does not compile (cycle, dangling reference),
// mirroring TopoOrder; use ComputeSCOAPCompiled with an already-compiled IR
// to avoid the error path entirely.
func ComputeSCOAP(n *Netlist) *SCOAP {
	c, err := n.Compiled()
	if err != nil {
		panic(err)
	}
	return ComputeSCOAPCompiled(c)
}

// ComputeSCOAPCompiled calculates the SCOAP measures over the shared
// compiled IR, by position.
func ComputeSCOAPCompiled(c *Compiled) *SCOAP {
	ng := c.NumGates()
	s := &SCOAP{
		CC0: make([]int, ng),
		CC1: make([]int, ng),
		CO:  make([]int, ng),
	}
	// Controllability: forward pass in topological order.
	for p := range ng {
		fanin := c.PosFanin[c.Pos[p].In:c.Pos[p+1].In]
		switch t := c.PosKind[p]; t {
		case Input, DFF:
			s.CC0[p], s.CC1[p] = 1, 1
		case Buf:
			f := fanin[0]
			s.CC0[p], s.CC1[p] = s.CC0[f]+1, s.CC1[f]+1
		case Not:
			f := fanin[0]
			s.CC0[p], s.CC1[p] = s.CC1[f]+1, s.CC0[f]+1
		case And, Nand:
			sum1, min0 := 1, scoapInf
			for _, f := range fanin {
				sum1 += s.CC1[f]
				if s.CC0[f] < min0 {
					min0 = s.CC0[f]
				}
			}
			c1, c0 := sum1, min0+1
			if t == Nand {
				c0, c1 = c1, c0
			}
			s.CC0[p], s.CC1[p] = c0, c1
		case Or, Nor:
			sum0, min1 := 1, scoapInf
			for _, f := range fanin {
				sum0 += s.CC0[f]
				if s.CC1[f] < min1 {
					min1 = s.CC1[f]
				}
			}
			c0, c1 := sum0, min1+1
			if t == Nor {
				c0, c1 = c1, c0
			}
			s.CC0[p], s.CC1[p] = c0, c1
		case Xor, Xnor:
			// For 2-input XOR: CC1 = min(CC1a+CC0b, CC0a+CC1b)+1,
			// CC0 = min(CC0a+CC0b, CC1a+CC1b)+1. Generalize pairwise.
			c0, c1 := s.CC0[fanin[0]], s.CC1[fanin[0]]
			for _, f := range fanin[1:] {
				n0 := min(c0+s.CC0[f], c1+s.CC1[f])
				n1 := min(c1+s.CC0[f], c0+s.CC1[f])
				c0, c1 = n0, n1
			}
			c0++
			c1++
			if t == Xnor {
				c0, c1 = c1, c0
			}
			s.CC0[p], s.CC1[p] = c0, c1
		}
	}
	// Observability: backward pass in reverse topological order.
	for i := range s.CO {
		s.CO[i] = scoapInf
	}
	for _, po := range c.Net.POs {
		s.CO[c.Tpos[po]] = 0
	}
	for p := ng - 1; p >= 0; p-- {
		if s.CO[p] == scoapInf {
			continue
		}
		fanin := c.PosFanin[c.Pos[p].In:c.Pos[p+1].In]
		t := c.PosKind[p]
		for pin, f := range fanin {
			co := s.CO[p] + 1
			for p2, f2 := range fanin {
				if p2 == pin {
					continue
				}
				switch t {
				case And, Nand: // sensitize: all side inputs at 1
					co += s.CC1[f2]
				case Or, Nor:
					co += s.CC0[f2]
				case Xor, Xnor: // side inputs need any known value
					co += min(s.CC0[f2], s.CC1[f2])
				}
			}
			if co < s.CO[f] {
				s.CO[f] = co
			}
		}
	}
	return s
}
