// Package logic provides the logic-value substrates used throughout the
// toolkit: 64-way parallel pattern words for high-throughput logic and fault
// simulation, and the five-valued D-algebra used by test generation.
package logic

import (
	"fmt"
	"math/bits"
)

// Word carries 64 independent binary patterns, one per bit position. All
// bitwise gate evaluations over Word therefore simulate 64 input vectors in
// a single machine operation (parallel-pattern simulation).
type Word = uint64

// WordBits is the number of patterns packed into a Word.
const WordBits = 64

// V is a five-valued logic value from the D-algebra used by ATPG:
// 0, 1, X (unknown), D (1 in the good circuit / 0 in the faulty circuit) and
// Dbar (0 good / 1 faulty).
type V uint8

// Five-valued logic constants.
const (
	V0    V = iota // logic 0 in both good and faulty circuit
	V1             // logic 1 in both good and faulty circuit
	VX             // unknown
	VD             // 1 in good circuit, 0 in faulty circuit
	VDbar          // 0 in good circuit, 1 in faulty circuit
)

// String returns the conventional textbook symbol for v.
func (v V) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	case VX:
		return "X"
	case VD:
		return "D"
	case VDbar:
		return "D'"
	}
	return fmt.Sprintf("V(%d)", uint8(v))
}

// Good returns the value seen in the fault-free circuit: V0, V1 or VX.
func (v V) Good() V {
	switch v {
	case VD:
		return V1
	case VDbar:
		return V0
	}
	return v
}

// IsD reports whether v carries a fault effect (D or D').
func (v V) IsD() bool { return v == VD || v == VDbar }

// Not returns the five-valued complement of v.
func (v V) Not() V {
	switch v {
	case V0:
		return V1
	case V1:
		return V0
	case VD:
		return VDbar
	case VDbar:
		return VD
	}
	return VX
}

// And returns the five-valued conjunction of a and b.
func And(a, b V) V {
	if a == V0 || b == V0 {
		return V0
	}
	if a == V1 {
		return b
	}
	if b == V1 {
		return a
	}
	if a == b {
		return a // X&X=X, D&D=D, D'&D'=D'
	}
	if (a == VD && b == VDbar) || (a == VDbar && b == VD) {
		return V0 // D & D' = 0 in both circuits
	}
	return VX // any combination involving X
}

// Or returns the five-valued disjunction of a and b.
func Or(a, b V) V {
	if a == V1 || b == V1 {
		return V1
	}
	if a == V0 {
		return b
	}
	if b == V0 {
		return a
	}
	if a == b {
		return a
	}
	if (a == VD && b == VDbar) || (a == VDbar && b == VD) {
		return V1
	}
	return VX
}

// Xor returns the five-valued exclusive-or of a and b.
func Xor(a, b V) V {
	// x ^ y = (x & !y) | (!x & y)
	return Or(And(a, b.Not()), And(a.Not(), b))
}

// PatternSet is a set of test patterns for a fixed number of inputs, stored
// bit-sliced: Bits[i][w] packs patterns w*64 .. w*64+63 for input i, so that
// gate evaluation over all patterns in a word is a single bitwise operation.
type PatternSet struct {
	Inputs int      // number of circuit inputs
	N      int      // number of patterns
	Bits   [][]Word // [input][word]
}

// NewPatternSet returns an all-zero pattern set for the given number of
// inputs and patterns.
func NewPatternSet(inputs, n int) *PatternSet {
	if inputs < 0 || n < 0 {
		panic("logic: negative pattern set dimension")
	}
	words := (n + WordBits - 1) / WordBits
	bits := make([][]Word, inputs)
	backing := make([]Word, inputs*words)
	for i := range bits {
		bits[i], backing = backing[:words:words], backing[words:]
	}
	return &PatternSet{Inputs: inputs, N: n, Bits: bits}
}

// Words returns the number of 64-pattern words per input.
func (p *PatternSet) Words() int {
	return (p.N + WordBits - 1) / WordBits
}

// Set assigns bit value v to input i of pattern n.
func (p *PatternSet) Set(n, i int, v bool) {
	w, b := n/WordBits, uint(n%WordBits)
	if v {
		p.Bits[i][w] |= 1 << b
	} else {
		p.Bits[i][w] &^= 1 << b
	}
}

// Get returns the bit value of input i in pattern n.
func (p *PatternSet) Get(n, i int) bool {
	w, b := n/WordBits, uint(n%WordBits)
	return p.Bits[i][w]>>b&1 == 1
}

// Pattern returns pattern n as a bool slice of length Inputs.
func (p *PatternSet) Pattern(n int) []bool {
	out := make([]bool, p.Inputs)
	for i := range out {
		out[i] = p.Get(n, i)
	}
	return out
}

// SetPattern assigns the bits of pattern n from a bool slice.
func (p *PatternSet) SetPattern(n int, bits []bool) {
	if len(bits) != p.Inputs {
		panic(fmt.Sprintf("logic: pattern width %d != inputs %d", len(bits), p.Inputs))
	}
	for i, v := range bits {
		p.Set(n, i, v)
	}
}

// Append adds one pattern to the set and returns its index.
func (p *PatternSet) Append(bits []bool) int {
	if len(bits) != p.Inputs {
		panic(fmt.Sprintf("logic: pattern width %d != inputs %d", len(bits), p.Inputs))
	}
	n := p.N
	if n%WordBits == 0 {
		for i := range p.Bits {
			p.Bits[i] = append(p.Bits[i], 0)
		}
	}
	p.N++
	p.SetPattern(n, bits)
	return n
}

// TailMask returns the mask of valid pattern bits in word w (all ones except
// possibly in the final word of a set whose size is not a multiple of 64).
func (p *PatternSet) TailMask(w int) Word {
	if w != p.Words()-1 || p.N%WordBits == 0 {
		return ^Word(0)
	}
	return (Word(1) << uint(p.N%WordBits)) - 1
}

// Reset empties the set in place, keeping the per-input word backing for
// reuse: a hot loop that fills, consumes and refills a block avoids
// re-allocating one slice per input per iteration. Appending after Reset
// zeroes each reused word before setting bits, so stale contents never leak.
func (p *PatternSet) Reset() {
	p.N = 0
	for i := range p.Bits {
		p.Bits[i] = p.Bits[i][:0]
	}
}

// PatternInto writes pattern n into out, which must have length Inputs, and
// returns it — the allocation-free counterpart of Pattern for hot loops.
func (p *PatternSet) PatternInto(n int, out []bool) []bool {
	if len(out) != p.Inputs {
		panic(fmt.Sprintf("logic: pattern buffer %d != inputs %d", len(out), p.Inputs))
	}
	for i := range out {
		out[i] = p.Get(n, i)
	}
	return out
}

// The word-level moves below append whole 64-pattern words instead of one
// bit per input per pattern. In the bit-sliced layout, moving one pattern
// bit by bit touches a different row, and so a different cache line, for
// every input; a word move touches each row once per 64 patterns. Each
// move leaves the bits above N zero. The source q must not be p itself.

// AppendSet appends every pattern of q, in order, to p: one word per
// input per 64 patterns, shifted into place when p.N is not a multiple of
// 64.
func (p *PatternSet) AppendSet(q *PatternSet) {
	p.checkInputs(q)
	off := p.grow(q.N)
	if q.N == 0 {
		return
	}
	qw := q.Words()
	tail := q.TailMask(qw - 1)
	for i, src := range q.Bits {
		for w, x := range src[:qw] {
			if w == qw-1 {
				x &= tail
			}
			orWordAt(p.Bits[i], off+w*WordBits, x)
		}
	}
}

// AppendReversed appends q's patterns last, last-1, ..., last-n+1 to p, in
// that order.
func (p *PatternSet) AppendReversed(q *PatternSet, last, n int) {
	p.checkInputs(q)
	if n < 0 || n > 0 && (last >= q.N || n > last+1) {
		panic(fmt.Sprintf("logic: reversed range of %d ending at %d outside %d patterns", n, last, q.N))
	}
	off := p.grow(n)
	if n == 0 {
		return
	}
	for i, src := range q.Bits {
		dst := p.Bits[i]
		for j := 0; j < n; j += WordBits {
			x := reversedWindow(src, last-j)
			if c := n - j; c < WordBits {
				x &= Word(1)<<uint(c) - 1
			}
			orWordAt(dst, off+j, x)
		}
	}
}

// reversedWindow returns the 64 patterns of row ending at pattern e, latest
// first: bit t holds pattern e-t, and is zero where e-t < 0.
func reversedWindow(row []Word, e int) Word {
	s := e - (WordBits - 1)
	if s < 0 {
		return bits.Reverse64(row[0] << uint(-s))
	}
	w, sh := s/WordBits, uint(s%WordBits)
	x := row[w] >> sh
	if sh != 0 {
		x |= row[w+1] << (WordBits - sh)
	}
	return bits.Reverse64(x)
}

// AppendGather appends q's patterns idx[0], idx[1], ... to p, in that
// order, walking each input row once.
func (p *PatternSet) AppendGather(q *PatternSet, idx []int) {
	p.checkInputs(q)
	for _, k := range idx {
		if k < 0 || k >= q.N {
			panic(fmt.Sprintf("logic: gather index %d outside %d patterns", k, q.N))
		}
	}
	off := p.grow(len(idx))
	if len(idx) == 0 {
		return
	}
	for i, src := range q.Bits {
		dst := p.Bits[i]
		for t, k := range idx {
			pos := off + t
			dst[pos/WordBits] |= (src[k/WordBits] >> uint(k%WordBits) & 1) << uint(pos%WordBits)
		}
	}
}

// checkInputs panics unless q has p's number of inputs, as Append does for
// a pattern of the wrong width.
func (p *PatternSet) checkInputs(q *PatternSet) {
	if q.Inputs != p.Inputs || len(q.Bits) != len(p.Bits) {
		panic(fmt.Sprintf("logic: pattern set inputs %d != inputs %d", q.Inputs, p.Inputs))
	}
}

// grow makes room for n more patterns and returns the index of the first.
// The new words and the bits above the old N in the old last word are
// zeroed, so the moves can OR the new patterns in. When a row runs out of
// capacity, every row moves to one shared backing of twice the words.
func (p *PatternSet) grow(n int) int {
	off := p.N
	p.N += n
	words := p.Words()
	for _, row := range p.Bits {
		if cap(row) < words {
			c := max(words, 2*cap(row))
			backing := make([]Word, len(p.Bits)*c)
			for i, r := range p.Bits {
				p.Bits[i] = backing[i*c : i*c+len(r) : (i+1)*c]
				copy(p.Bits[i], r)
			}
			break
		}
	}
	for i, row := range p.Bits {
		if b := uint(off % WordBits); b != 0 {
			row[off/WordBits] &= Word(1)<<b - 1
		}
		old := len(row)
		row = row[:words]
		clear(row[old:])
		p.Bits[i] = row
	}
	return off
}

// orWordAt ORs the 64 patterns of x into row starting at pattern pos. Bits
// of x that would land past the end of row must be zero.
func orWordAt(row []Word, pos int, x Word) {
	w, b := pos/WordBits, uint(pos%WordBits)
	row[w] |= x << b
	if b != 0 && w+1 < len(row) {
		row[w+1] |= x >> (WordBits - b)
	}
}

// Clone returns a deep copy of the pattern set.
func (p *PatternSet) Clone() *PatternSet {
	q := NewPatternSet(p.Inputs, p.N)
	for i := range p.Bits {
		copy(q.Bits[i], p.Bits[i])
	}
	return q
}

// RandFill fills all patterns with pseudo-random bits from rnd, a function
// returning uniformly random 64-bit words (e.g. (*math/rand.Rand).Uint64).
func (p *PatternSet) RandFill(rnd func() Word) {
	for i := range p.Bits {
		for w := range p.Bits[i] {
			p.Bits[i][w] = rnd() & p.TailMask(w)
		}
	}
}

// Exhaustive returns the pattern set enumerating all 2^inputs input
// combinations. It panics if inputs > 24 to guard against runaway memory.
func Exhaustive(inputs int) *PatternSet {
	if inputs > 24 {
		panic("logic: exhaustive pattern set limited to 24 inputs")
	}
	n := 1 << uint(inputs)
	p := NewPatternSet(inputs, n)
	for pat := 0; pat < n; pat++ {
		for i := 0; i < inputs; i++ {
			p.Set(pat, i, pat>>uint(i)&1 == 1)
		}
	}
	return p
}

// PopCount returns the number of set bits in w.
func PopCount(w Word) int { return bits.OnesCount64(w) }

// ParseBits parses a string of '0'/'1' characters into a bool slice.
func ParseBits(s string) ([]bool, error) {
	out := make([]bool, len(s))
	for i, c := range s {
		switch c {
		case '0':
			out[i] = false
		case '1':
			out[i] = true
		default:
			return nil, fmt.Errorf("logic: invalid bit character %q at position %d", c, i)
		}
	}
	return out, nil
}

// FormatBits renders a bool slice as a '0'/'1' string.
func FormatBits(bits []bool) string {
	b := make([]byte, len(bits))
	for i, v := range bits {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
