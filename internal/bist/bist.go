// Package bist implements logic built-in self-test infrastructure: linear
// feedback shift registers (LFSR) as pseudo-random pattern generators, and
// multiple-input signature registers (MISR) for response compaction, with
// aliasing analysis against the stuck-at fault model (experiment F6).
package bist

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// primitivePolys maps register length to a primitive characteristic
// polynomial over GF(2), given as a tap mask (bit i set = term x^(i+1); the
// x^0 term is implicit). Taken from the standard tables; every listed
// polynomial is maximal-length.
var primitivePolys = map[int]uint64{
	4:  0b1001,
	5:  0b10010,
	6:  0b100001,
	7:  0b1000001,
	8:  0b10111000,
	9:  0b100010000,
	10: 0b1000000100,
	12: 0b100000101001,
	16: 0b1000000000010110,
	20: 0b10000000000000000100,
	24: 0b100000000000000000011011,
	32: 0b10000000000000000000000001100010,
}

// LFSR is a Fibonacci linear feedback shift register over GF(2).
type LFSR struct {
	Length int
	Taps   uint64
	state  uint64
}

// NewLFSR builds an LFSR of the given length with a primitive polynomial
// from the built-in table and a nonzero seed.
func NewLFSR(length int, seed uint64) (*LFSR, error) {
	taps, ok := primitivePolys[length]
	if !ok {
		return nil, fmt.Errorf("bist: no primitive polynomial of length %d (have %v)", length, lengths())
	}
	l := &LFSR{Length: length, Taps: taps}
	l.Seed(seed)
	return l, nil
}

func lengths() []int {
	return []int{4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 24, 32}
}

// Seed resets the register; a zero seed is mapped to 1 (the all-zero state
// is the LFSR's fixed point and must be avoided).
func (l *LFSR) Seed(seed uint64) {
	mask := (uint64(1) << uint(l.Length)) - 1
	l.state = seed & mask
	if l.state == 0 {
		l.state = 1
	}
}

// Step advances one clock and returns the new state.
func (l *LFSR) Step() uint64 {
	fb := uint64(0)
	taps := l.Taps
	for taps != 0 {
		bit := taps & (^taps + 1) // lowest set tap
		pos := trailingZeros(bit)
		fb ^= l.state >> uint(pos) & 1
		taps &^= bit
	}
	l.state = (l.state<<1 | fb) & ((1 << uint(l.Length)) - 1)
	return l.state
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// Patterns expands nPatterns LFSR states into test patterns for a circuit
// with nInputs inputs. Inputs beyond the register length are fed from
// additional shifts (standard phase-shifter-free expansion: the register is
// clocked once per input bit).
func (l *LFSR) Patterns(nInputs, nPatterns int) *logic.PatternSet {
	p := logic.NewPatternSet(nInputs, nPatterns)
	for k := 0; k < nPatterns; k++ {
		for i := 0; i < nInputs; i++ {
			l.Step()
			p.Set(k, i, l.state&1 == 1)
		}
	}
	return p
}

// MISR is a multiple-input signature register: a LFSR that XORs one
// response bit per output into consecutive stages each cycle, compacting a
// full response stream into Length bits.
type MISR struct {
	LFSR
}

// NewMISR builds a MISR of the given length.
func NewMISR(length int, seed uint64) (*MISR, error) {
	l, err := NewLFSR(length, seed)
	if err != nil {
		return nil, err
	}
	return &MISR{LFSR: *l}, nil
}

// Absorb compacts one response vector (one bit per circuit output) into the
// signature.
func (m *MISR) Absorb(bits []bool) {
	m.Step()
	for i, b := range bits {
		if b {
			m.state ^= 1 << uint(i%m.Length)
		}
	}
}

// Signature returns the current compacted signature.
func (m *MISR) Signature() uint64 { return m.state }

// Result summarizes one BIST session.
type Result struct {
	Patterns      int
	GoodSignature uint64
	Coverage      float64 // stuck-at coverage of the applied patterns
	Detected      int
	TotalFaults   int
	// Aliased counts detected faults whose final signature nevertheless
	// equals the good signature (escapes through compaction).
	Aliased int
}

// Run executes a full BIST session on the netlist: the LFSR applies
// nPatterns patterns, the good signature is computed, stuck-at coverage is
// measured, and every detected fault's faulty signature is checked for
// aliasing.
func Run(n *circuit.Netlist, lfsrLen, misrLen int, seed uint64, nPatterns int) (*Result, error) {
	gen, err := NewLFSR(lfsrLen, seed)
	if err != nil {
		return nil, err
	}
	patterns := gen.Patterns(len(n.PIs), nPatterns)

	// One shared compiled IR drives both the good-circuit simulator and the
	// fault simulator below.
	comp, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	// Good PO responses, bit-sliced like the dictionary: goodPO[o][w].
	goodPO := make([][]logic.Word, len(n.POs))
	for o := range goodPO {
		goodPO[o] = make([]logic.Word, patterns.Words())
	}
	vals := make([]logic.Word, comp.NumGates()) // one lane; PI i is position i
	for w := range patterns.Words() {
		for i, row := range patterns.Bits {
			vals[i] = row[w]
		}
		sim.Propagate(comp, vals, 1, 0, 1)
		for o, po := range n.POs {
			goodPO[o][w] = vals[comp.Tpos[po]]
		}
	}
	goodAt := func(k, o int) bool {
		return goodPO[o][k/logic.WordBits]>>uint(k%logic.WordBits)&1 == 1
	}
	good, err := NewMISR(misrLen, seed)
	if err != nil {
		return nil, err
	}
	row := make([]bool, len(n.POs))
	for k := 0; k < patterns.N; k++ {
		for o := range row {
			row[o] = goodAt(k, o)
		}
		good.Absorb(row)
	}

	fsim, err := fault.NewSimulator(n)
	if err != nil {
		return nil, err
	}
	faults := fault.Universe(n)
	res := &Result{
		Patterns:      patterns.N,
		GoodSignature: good.Signature(),
		TotalFaults:   len(faults),
	}
	// Full dictionary so the faulty response stream (good XOR diff) can be
	// re-compacted per fault.
	dict := fsim.Dictionary(patterns, faults)
	for fi := range faults {
		if dict[fi].FailBits() == 0 {
			continue
		}
		res.Detected++
		m, err := NewMISR(misrLen, seed)
		if err != nil {
			return nil, err
		}
		for k := 0; k < patterns.N; k++ {
			w, b := k/logic.WordBits, uint(k%logic.WordBits)
			for o := range row {
				diff := dict[fi].Bits[o][w]>>b&1 == 1
				row[o] = goodAt(k, o) != diff // faulty = good XOR diff
			}
			m.Absorb(row)
		}
		if m.Signature() == res.GoodSignature {
			res.Aliased++
		}
	}
	res.Coverage = float64(res.Detected) / float64(res.TotalFaults)
	return res, nil
}
