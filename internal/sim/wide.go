package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// MaxLanes is the largest number of 64-bit pattern words a multi-word
// simulator packs per gate. One lane is one logic.Word (64 patterns), so a
// full-width pass carries MaxLanes*logic.WordBits = 512 patterns.
const MaxLanes = 8

// FoldLanes computes one gate's output over the lanes [lo, lo+len(out)),
// folding each fanin's lanes straight out of vals, a value buffer of S words
// per position (lane l of position p at vals[p*S+l]). fanin lists the
// positions of the gate's pins, in pin order; a position may repeat. out may
// alias the gate's own lanes in vals, which no fanin reads. Like Eval, gate
// types are validated at circuit.Compile time; an out-of-range type
// evaluates to all-zero lanes.
func FoldLanes(t circuit.GateType, vals []logic.Word, fanin []int32, S, lo int, out []logic.Word) {
	n := len(out)
	for l, w := range vals[int(fanin[0])*S+lo:][:n] {
		out[l] = w
	}
	switch t {
	case circuit.Buf, circuit.DFF, circuit.Not:
	case circuit.And, circuit.Nand:
		for _, f := range fanin[1:] {
			for l, w := range vals[int(f)*S+lo:][:n] {
				out[l] &= w
			}
		}
	case circuit.Or, circuit.Nor:
		for _, f := range fanin[1:] {
			for l, w := range vals[int(f)*S+lo:][:n] {
				out[l] |= w
			}
		}
	case circuit.Xor, circuit.Xnor:
		for _, f := range fanin[1:] {
			for l, w := range vals[int(f)*S+lo:][:n] {
				out[l] ^= w
			}
		}
	default:
		clear(out)
		return
	}
	switch t {
	case circuit.Not, circuit.Nand, circuit.Nor, circuit.Xnor:
		for l := range out {
			out[l] = ^out[l]
		}
	}
}

// Propagate simulates lanes [lo, hi) of every gate past the PIs of c over
// vals, a value buffer the caller owns: S lanes per topological position,
// lane l of position p at vals[p*S+l], so len(vals) must be NumGates()*S.
// Positions [0, NumPIs) are the PIs in Net.PIs order, which the caller
// writes before the call; callers that index by gate ID translate through
// c.Tpos. Lanes outside [lo, hi) are left untouched, so a caller whose new
// patterns only extended a block re-simulates just the tail lanes.
//
// A one-lane range takes a scalar loop with each gate's evaluation fused
// into its fanin loads; wider ranges fold every gate's lanes with
// FoldLanes in place. Both compute the same words.
func Propagate(c *circuit.Compiled, vals []logic.Word, S, lo, hi int) {
	if lo < 0 || lo >= hi || hi > S {
		panic(fmt.Sprintf("sim: lane range [%d,%d) out of range [0,%d)", lo, hi, S))
	}
	if len(vals) != c.NumGates()*S {
		panic(fmt.Sprintf("sim: got %d value words, want %d gates x %d lanes", len(vals), c.NumGates(), S))
	}
	pos, kind, faninAll := c.Pos, c.PosKind, c.PosFanin
	if hi-lo > 1 {
		for p, end := c.NumPIs(), c.NumGates(); p < end; p++ {
			FoldLanes(kind[p], vals, faninAll[pos[p].In:pos[p+1].In], S, lo, vals[p*S+lo:p*S+hi])
		}
		return
	}
	for p, end := c.NumPIs(), c.NumGates(); p < end; p++ {
		fanin := faninAll[pos[p].In:pos[p+1].In]
		var v logic.Word
		switch t := kind[p]; t {
		case circuit.And, circuit.Nand:
			v = vals[int(fanin[0])*S+lo]
			for _, f := range fanin[1:] {
				v &= vals[int(f)*S+lo]
			}
			if t == circuit.Nand {
				v = ^v
			}
		case circuit.Or, circuit.Nor:
			v = vals[int(fanin[0])*S+lo]
			for _, f := range fanin[1:] {
				v |= vals[int(f)*S+lo]
			}
			if t == circuit.Nor {
				v = ^v
			}
		case circuit.Xor, circuit.Xnor:
			v = vals[int(fanin[0])*S+lo]
			for _, f := range fanin[1:] {
				v ^= vals[int(f)*S+lo]
			}
			if t == circuit.Xnor {
				v = ^v
			}
		case circuit.Not:
			v = ^vals[int(fanin[0])*S+lo]
		case circuit.Buf, circuit.DFF:
			v = vals[int(fanin[0])*S+lo]
		}
		vals[p*S+lo] = v
	}
}
