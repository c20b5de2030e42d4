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
// all lanes. Values are stored strided — all lanes of a gate are contiguous
// at values[g*W : g*W+W] — which is the layout the multi-word fault engine
// reads in its hot loop; with W=1 the buffer is simply one word per gate. A
// Wide owns only its value buffer and its fanin gather scratch (sized from
// the widest gate of the circuit); the compiled IR is shared and read-only.
type Wide struct {
	Net *circuit.Netlist
	// C is the shared compiled IR; read-only.
	C *circuit.Compiled
	// W is the lane stride; fixed at construction.
	W      int
	values []logic.Word // strided lanes: values[g*W+l]
	in     []logic.Word // fanin gather scratch: C.MaxFanin*W words
}

// NewWideCompiled builds a W-lane simulator over an already-compiled IR.
// 1 <= w <= MaxLanes.
func NewWideCompiled(c *circuit.Compiled, w int) *Wide {
	if w < 1 || w > MaxLanes {
		panic(fmt.Sprintf("sim: lane count %d out of range [1,%d]", w, MaxLanes))
	}
	return &Wide{
		Net:    c.Net,
		C:      c,
		W:      w,
		values: make([]logic.Word, c.NumGates()*w),
		in:     make([]logic.Word, c.MaxFanin*w),
	}
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
	c := s.C
	W := s.W
	if len(piWords) != c.NumPIs()*W {
		panic(fmt.Sprintf("sim: got %d PI lane words, want %d", len(piWords), c.NumPIs()*W))
	}
	if lo < 0 || lo >= hi || hi > W {
		panic(fmt.Sprintf("sim: lane range [%d,%d) out of range [0,%d)", lo, hi, W))
	}
	n := hi - lo
	vals := s.values
	for _, id32 := range c.Order {
		id := int(id32)
		t := c.Types[id]
		base := id*W + lo
		if t == circuit.Input || t == circuit.DFF {
			// Full-scan: DFF outputs are pseudo-PIs.
			pb := int(c.PIPos[id])*W + lo
			for l := 0; l < n; l++ {
				vals[base+l] = piWords[pb+l]
			}
			continue
		}
		fanin := c.Fanin(id)
		in := s.in[:len(fanin)*n]
		for pin, f := range fanin {
			fb := int(f)*W + lo
			ib := pin * n
			for l := 0; l < n; l++ {
				in[ib+l] = vals[fb+l]
			}
		}
		EvalLanes(t, in, len(fanin), n, vals[base:base+n])
	}
	return vals
}

// Values returns the strided lane buffer from the most recent BlockRange
// call. The slice aliases internal storage; callers must not mutate it, and
// lanes the last call did not cover are stale.
func (s *Wide) Values() []logic.Word { return s.values }
