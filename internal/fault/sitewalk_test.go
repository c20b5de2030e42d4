package fault

import (
	"repro/internal/circuit"
	"repro/internal/logic"
)

// The site walk is the reference injection of the tests: each fault's
// effect enters the walk kernel at the fault site, with the site's faulty
// lanes computed gate by gate (siteLanes), where the engine flips the
// region stem in the lanes of the fault's reach. runIntoRef, dictionaryRef
// and the full-resim, lane-width and lane-window properties compare the
// engine against it.

// detectWord simulates fault f against lane 0 of the good values currently
// held in the value buffer and returns the word of pattern bits where any
// faulty primary output differs: every such bit when perPO is non-nil (the
// difference word of each PO index is then OR-accumulated into it at stride
// Words()), else a subset of them that holds the lowest (see
// detectLanes). It is the single-word view of detectLanes.
func (s *Simulator) detectWord(f Fault, mask logic.Word, perPO []logic.Word) logic.Word {
	var masks, diff [1]logic.Word
	masks[0] = mask
	s.detectLanes(f, 0, 1, masks[:], diff[:], perPO)
	return diff[0]
}

// detectLanes simulates fault f against the lane window [lo, lo+act) of the
// good values currently held in the value buffer (from the last simulateGood
// call). masks and diff are window-relative (length act): for every window
// lane l it OR-accumulates the masked PO difference word into diff[l]. When
// perPO is non-nil, per-PO difference lanes are accumulated at
// perPO[po*W+lo+l] and the indices of the touched POs are returned (the
// caller owns clearing them — detectLanes never zeroes perPO). It feeds the
// fault site's faulty lanes (siteLanes) to the walk kernel (walk), and
// counts the site as an evaluated gate.
//
// Without perPO the walk's need is the fault's earliest possible detection:
// the lowest bit of the first lane where the site flips under the mask (a
// PO can differ only in a bit where the site does). So diff then holds the
// fault's first detection, when there is one, but not every detecting bit.
// With perPO the walk runs to the end and diff is complete.
func (s *Simulator) detectLanes(f Fault, lo, act int, masks, diff []logic.Word, perPO []logic.Word) []int32 {
	var v [MaxWords]logic.Word
	site := s.siteLanes(f, lo, act, v[:act])
	s.gateEvals++ // the fault site
	if perPO != nil {
		return s.walk(site, v[:act], lo, act, masks, diff, nil, perPO)
	}
	var need [MaxWords]logic.Word
	b := site*s.stride + lo
	for l := 0; l < act; l++ {
		if d := (v[l] ^ s.vals[b+l]) & masks[l]; d != 0 {
			need[l] = d & -d
			break
		}
	}
	return s.walk(site, v[:act], lo, act, masks, diff, need[:act], nil)
}

// siteLanes writes the faulty value of fault f's site gate over the lane
// window [lo, lo+act) into v and returns the site's position: the stuck
// value for a stem fault, the gate re-evaluated with the stuck value on its
// pin for a branch fault, and the good value for a branch fault on a
// pseudo-PI (Input/DFF), which no fanin reaches. A branch fault's gate is
// evaluated lane by lane: the stuck value seeds the fold, the other pins'
// good lanes fold into it, and NOT, NAND, NOR and XNOR invert the result.
func (s *Simulator) siteLanes(f Fault, lo, act int, v []logic.Word) int {
	c := s.c
	S, vals := s.stride, s.vals
	site := int(c.Tpos[f.Gate])
	var force logic.Word
	if f.SA == 1 {
		force = ^logic.Word(0)
	}
	sbase := site*S + lo
	switch t := c.PosKind[site]; {
	case f.Pin < 0:
		for l := range v {
			v[l] = force
		}
	case t == circuit.Input || t == circuit.DFF:
		copy(v, vals[sbase:sbase+act])
	default:
		for l := range v {
			v[l] = force
		}
		fanin := c.PosFanin[c.Pos[site].In:c.Pos[site+1].In]
		switch t {
		case circuit.And, circuit.Nand:
			for pin, fp := range fanin {
				if pin != f.Pin {
					for l, w := range vals[int(fp)*S+lo:][:act] {
						v[l] &= w
					}
				}
			}
		case circuit.Or, circuit.Nor:
			for pin, fp := range fanin {
				if pin != f.Pin {
					for l, w := range vals[int(fp)*S+lo:][:act] {
						v[l] |= w
					}
				}
			}
		case circuit.Xor, circuit.Xnor:
			for pin, fp := range fanin {
				if pin != f.Pin {
					for l, w := range vals[int(fp)*S+lo:][:act] {
						v[l] ^= w
					}
				}
			}
		}
		if t == circuit.Not || t == circuit.Nand || t == circuit.Nor || t == circuit.Xnor {
			for l := range v {
				v[l] = ^v[l]
			}
		}
	}
	return site
}
