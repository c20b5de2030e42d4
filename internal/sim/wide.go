package sim

import (
	"fmt"
	"slices"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// MaxLanes is the largest number of 64-bit pattern words a multi-word
// simulator packs per gate. One lane is one logic.Word (64 patterns), so a
// full-width pass carries MaxLanes*logic.WordBits = 512 patterns.
const MaxLanes = 8

// EvalLanes computes one gate's output lanes from its fanin lanes. in holds
// n fanin operands of act lanes each, flattened as in[pin*act+lane]; out
// receives act lanes. Like Eval, gate types are validated at circuit.Compile
// time; an out-of-range type evaluates to all-zero lanes.
func EvalLanes(t circuit.GateType, in []logic.Word, n, act int, out []logic.Word) {
	switch t {
	case circuit.Buf, circuit.DFF:
		for l := 0; l < act; l++ {
			out[l] = in[l]
		}
	case circuit.Not:
		for l := 0; l < act; l++ {
			out[l] = ^in[l]
		}
	case circuit.And, circuit.Nand:
		for l := 0; l < act; l++ {
			out[l] = in[l]
		}
		for p := 1; p < n; p++ {
			b := p * act
			for l := 0; l < act; l++ {
				out[l] &= in[b+l]
			}
		}
		if t == circuit.Nand {
			for l := 0; l < act; l++ {
				out[l] = ^out[l]
			}
		}
	case circuit.Or, circuit.Nor:
		for l := 0; l < act; l++ {
			out[l] = in[l]
		}
		for p := 1; p < n; p++ {
			b := p * act
			for l := 0; l < act; l++ {
				out[l] |= in[b+l]
			}
		}
		if t == circuit.Nor {
			for l := 0; l < act; l++ {
				out[l] = ^out[l]
			}
		}
	case circuit.Xor, circuit.Xnor:
		for l := 0; l < act; l++ {
			out[l] = in[l]
		}
		for p := 1; p < n; p++ {
			b := p * act
			for l := 0; l < act; l++ {
				out[l] ^= in[b+l]
			}
		}
		if t == circuit.Xnor {
			for l := 0; l < act; l++ {
				out[l] = ^out[l]
			}
		}
	default:
		for l := 0; l < act; l++ {
			out[l] = 0
		}
	}
}

// Wide is the levelized parallel-pattern good-value simulator: it evaluates
// W pattern words (up to MaxLanes, i.e. W*64 patterns) per gate in a single
// levelized pass, so the per-gate dispatch and fanin gathering amortize over
// all lanes. Values are stored by topological position and strided — all
// lanes of position p are contiguous at values[p*W : p*W+W] — which is the
// layout the multi-word fault engine walks in place; with W=1 the buffer is
// simply one word per position. Positions [0, NumPIs) are the PIs in
// Net.PIs order, so lane l of PI i sits at values[i*W+l], the layout of
// BlockRange's piWords. Callers that index by gate ID translate through
// C.Tpos. A Wide owns only its value buffer and its fanin gather scratch
// (sized from the widest gate of the circuit); the compiled IR is shared and
// read-only.
type Wide struct {
	Net *circuit.Netlist
	// C is the shared compiled IR; read-only.
	C *circuit.Compiled
	// W is the lane stride, set by NewWideCompiled and Restride.
	W      int
	values []logic.Word // strided lanes by position: values[p*W+l]
	in     []logic.Word // fanin gather scratch: C.MaxFanin*W words
}

// NewWideCompiled builds a W-lane simulator over an already-compiled IR.
// 1 <= w <= MaxLanes.
func NewWideCompiled(c *circuit.Compiled, w int) *Wide {
	s := &Wide{Net: c.Net, C: c}
	s.Restride(w)
	return s
}

// Restride sets the lane stride to w (1 <= w <= MaxLanes), reusing the
// value buffer's backing array when it already holds NumGates()*w words. At
// an unchanged stride every stored lane keeps its value; after a change
// every lane is stale.
func (s *Wide) Restride(w int) {
	if w < 1 || w > MaxLanes {
		panic(fmt.Sprintf("sim: lane count %d out of range [1,%d]", w, MaxLanes))
	}
	s.W = w
	s.values = slices.Grow(s.values[:0], s.C.NumGates()*w)[:s.C.NumGates()*w]
	s.in = slices.Grow(s.in[:0], s.C.MaxFanin*w)[:s.C.MaxFanin*w]
}

// BlockRange simulates lanes [lo, hi) of the pattern block in one pass,
// leaving every other lane's stored values untouched. piWords is strided
// like the value buffer: lane l of Net.PIs[i] at piWords[i*W+l]. A whole
// block of act pattern words is BlockRange(piWords, 0, act); lanes at index
// >= act are then stale and callers must not read them. A caller that has
// already simulated the first lo lanes, and whose new patterns only
// extended the block, re-simulates just the tail lanes. The returned slice
// aliases internal storage valid until the next call.
func (s *Wide) BlockRange(piWords []logic.Word, lo, hi int) []logic.Word {
	W := s.W
	if len(piWords) != s.C.NumPIs()*W {
		panic(fmt.Sprintf("sim: got %d PI lane words, want %d", len(piWords), s.C.NumPIs()*W))
	}
	for b := 0; b < len(piWords); b += W { // PI i is position i
		copy(s.values[b+lo:b+hi], piWords[b+lo:b+hi])
	}
	return s.Propagate(lo, hi)
}

// Propagate simulates lanes [lo, hi) of every gate past the PIs from the PI
// lanes already stored at positions [0, NumPIs) of the value buffer: the
// form of BlockRange for a caller that writes its PI words straight into
// Values(). It returns the value buffer.
//
// A one-lane range takes a scalar path with each gate's evaluation fused
// into its fanin loads; wider ranges gather the fanin lanes and call
// EvalLanes. Both compute the same words.
func (s *Wide) Propagate(lo, hi int) []logic.Word {
	if lo < 0 || lo >= hi || hi > s.W {
		panic(fmt.Sprintf("sim: lane range [%d,%d) out of range [0,%d)", lo, hi, s.W))
	}
	if hi-lo == 1 {
		s.propagateLane(lo)
	} else {
		s.propagateLanes(lo, hi)
	}
	return s.values
}

// propagateLanes is Propagate over lanes [lo, hi): per gate, it gathers the
// fanin lanes into s.in and evaluates them with EvalLanes.
func (s *Wide) propagateLanes(lo, hi int) {
	c := s.C
	W := s.W
	n := hi - lo
	vals := s.values
	pos, faninAll := c.Pos, c.PosFanin
	for p, end := c.NumPIs(), c.NumGates(); p < end; p++ {
		fanin := faninAll[pos[p].In:pos[p+1].In]
		in := s.in[:len(fanin)*n]
		for pin, f := range fanin {
			fb := int(f)*W + lo
			ib := pin * n
			for l := 0; l < n; l++ {
				in[ib+l] = vals[fb+l]
			}
		}
		EvalLanes(c.PosKind[p], in, len(fanin), n, vals[p*W+lo:p*W+hi])
	}
}

// propagateLane is Propagate over the single lane l: each gate folds its
// fanin words straight from the value buffer, the form of the fault walk's
// scalar path, with no gather and no per-gate EvalLanes call.
func (s *Wide) propagateLane(l int) {
	c := s.C
	W := s.W
	vals := s.values
	pos, kind, faninAll := c.Pos, c.PosKind, c.PosFanin
	for p, end := c.NumPIs(), c.NumGates(); p < end; p++ {
		fanin := faninAll[pos[p].In:pos[p+1].In]
		var v logic.Word
		switch t := kind[p]; t {
		case circuit.And, circuit.Nand:
			v = vals[int(fanin[0])*W+l]
			for _, f := range fanin[1:] {
				v &= vals[int(f)*W+l]
			}
			if t == circuit.Nand {
				v = ^v
			}
		case circuit.Or, circuit.Nor:
			v = vals[int(fanin[0])*W+l]
			for _, f := range fanin[1:] {
				v |= vals[int(f)*W+l]
			}
			if t == circuit.Nor {
				v = ^v
			}
		case circuit.Xor, circuit.Xnor:
			v = vals[int(fanin[0])*W+l]
			for _, f := range fanin[1:] {
				v ^= vals[int(f)*W+l]
			}
			if t == circuit.Xnor {
				v = ^v
			}
		case circuit.Not:
			v = ^vals[int(fanin[0])*W+l]
		case circuit.Buf, circuit.DFF:
			v = vals[int(fanin[0])*W+l]
		}
		vals[p*W+l] = v
	}
}

// Values returns the strided lane buffer, indexed by position, from the
// most recent BlockRange or Propagate call. The slice aliases internal
// storage; lanes the last call did not cover are stale. Only a caller that
// restores what it writes (the fault walk) or that loads PI lanes for
// Propagate may write to it.
func (s *Wide) Values() []logic.Word { return s.values }
