package fault

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// MaxWords is the largest supported pattern-word packing: a W-word pass
// carries W*64 patterns through every gate evaluation, so a full-width
// engine amortizes one cone walk over up to 512 patterns.
const MaxWords = sim.MaxLanes

// NormalizeWords clamps a Words knob to the supported lane widths
// {1, 2, 4, 8}: values <= 1 select 1, other values round down to the
// nearest supported width, capped at MaxWords. Every engine entry point
// applies it, so callers may thread raw flag values through unchecked.
func NormalizeWords(w int) int {
	switch {
	case w <= 1:
		return 1
	case w < 4:
		return 2
	case w < 8:
		return 4
	default:
		return MaxWords
	}
}

// Simulator performs serial-fault, parallel-pattern stuck-at fault
// simulation (PPSFP): the good circuit is simulated once per pattern block,
// then each live fault is injected and its structural fanout cone
// re-evaluated event-driven — only gates reached by a live fault effect are
// touched, and injection terminates as soon as the effect dies (every
// faulty lane equals its good lane and nothing downstream can differ).
// A fault is detected when any primary output differs from the good value
// in any pattern bit.
//
// The engine packs W = Words() 64-bit pattern words per gate (lanes), so a
// single epoch-stamped cone walk amortizes over up to W*64 patterns. Lanes
// are stored strided — all W words of gate g sit at [g*W : g*W+W] — and the
// live-effect early exit triggers only when every lane has died.
//
// All graph structure (CSR adjacency, topological tables, PO index map)
// lives in the shared immutable circuit.Compiled IR; a Simulator owns only
// its mutable scratch (the good/faulty value lanes, the frontier bitmap and
// the undo log), so per-worker instances over one compiled graph are
// cheap — O(gates) each, independent of circuit depth or cone sizes.
type Simulator struct {
	Net  *circuit.Netlist
	c    *circuit.Compiled
	w    int       // lanes (pattern words) per pass
	good *sim.Wide // good-value lanes; patched in place during a walk, restored after
	// front is the frontier bitmap over topological positions; it is
	// self-clearing, so walks never pay a bulk reset.
	front []uint64
	// undoIdx/undoVal log the value-buffer windows a walk overwrote with
	// faulty lanes, so one short replay restores the good values. Patching
	// in place means gate evaluation reads a single array with no
	// faulty-or-good selection in the hot loop.
	undoIdx []int32
	undoVal []logic.Word
	dirty   []int32 // scratch: PO indices touched by the last detectLanes
	piBuf   []logic.Word

	// Staged-probe state (Stage/Probe): the lane count and tail masks of the
	// pattern set whose good values currently occupy the value lanes, plus
	// the set identity and pattern count for incremental re-staging of
	// append-only sets.
	stagedAct   int
	stagedMasks [MaxWords]logic.Word
	stagedSet   *logic.PatternSet
	stagedN     int
}

// NewSimulator compiles a single-word (W=1) fault simulator for the
// netlist. The compiled IR is cached on the netlist, so repeated calls
// share one graph.
func NewSimulator(n *circuit.Netlist) (*Simulator, error) {
	return NewSimulatorWords(n, 1)
}

// NewSimulatorWords compiles a fault simulator packing words pattern words
// per gate (normalized to {1,2,4,8}).
func NewSimulatorWords(n *circuit.Netlist, words int) (*Simulator, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	return NewSimulatorCompiledWords(c, words), nil
}

// NewSimulatorCompiled builds a single-word (W=1) fault simulator over an
// already-compiled IR, allocating only the per-instance mutable scratch.
// The concurrent drivers (RunConcurrent, DictionaryConcurrent) use this to
// hand every worker goroutine the same graph.
func NewSimulatorCompiled(c *circuit.Compiled) *Simulator {
	return NewSimulatorCompiledWords(c, 1)
}

// NewSimulatorCompiledWords builds a W-word fault simulator over an
// already-compiled IR. words is normalized to {1,2,4,8}; all widths share
// the IR, so simulators of different widths over one graph are cheap.
func NewSimulatorCompiledWords(c *circuit.Compiled, words int) *Simulator {
	w := NormalizeWords(words)
	return &Simulator{
		Net:   c.Net,
		c:     c,
		w:     w,
		good:  sim.NewWideCompiled(c, w),
		front: make([]uint64, (c.NumGates()+63)/64),
	}
}

// Compiled returns the shared immutable IR the simulator reads.
func (s *Simulator) Compiled() *circuit.Compiled { return s.c }

// Words returns the number of 64-bit pattern words packed per pass.
func (s *Simulator) Words() int { return s.w }

// detectWord simulates fault f against lane 0 of the good values currently
// held in s.good and returns the word of pattern bits where any faulty
// primary output differs. When perPO is non-nil the difference word of each
// PO index is OR-accumulated into it at stride Words(). It is the
// single-word view of detectLanes, kept for the serial baseline and the
// oracle tests.
func (s *Simulator) detectWord(f Fault, mask logic.Word, perPO []logic.Word) logic.Word {
	var masks, diff [1]logic.Word
	masks[0] = mask
	s.detectLanes(f, 0, 1, masks[:], diff[:], perPO)
	return diff[0]
}

// detectLanes simulates fault f against the lane window [lo, lo+act) of the
// good values currently held in s.good (from the last Block call). masks and
// diff are window-relative (length act): for every window lane l it
// OR-accumulates the masked PO difference word into diff[l]. When perPO is
// non-nil, per-PO difference lanes are accumulated at perPO[po*W+lo+l] and
// the indices of the touched POs are returned (the caller owns clearing
// them — detectLanes never zeroes perPO).
//
// The walk is event-driven over a frontier bitmap indexed by topological
// position: evaluating a gate whose lanes differ from the good lanes sets
// the bits of its fanouts, and the walk consumes set bits in increasing
// position (fanouts always sit at strictly higher positions, so each gate is
// evaluated at most once, after all of its faulty fanins). Only gates
// actually fed by a live fault effect are ever visited, and the walk
// terminates exactly when the effect has died in every lane — an empty
// frontier is the all-lanes-dead early exit. The bitmap is self-clearing
// (each consumed bit is cleared before its gate is processed), so the
// scratch never needs a bulk reset between faults.
//
// Faulty lanes are patched directly into the good-value buffer and logged
// in the undo list; the walk epilogue replays the log to restore the good
// values. Gate evaluation therefore reads one array with no faulty-or-good
// selection per fanin, which is what keeps the per-event cost flat.
//
// act == 1 takes a specialized scalar path with the gate evaluation fused
// into the fanin loads: the drop-mode Run stages lane 0 of every block
// through it as a cheap filter before packing the surviving lanes into one
// multi-lane walk.
func (s *Simulator) detectLanes(f Fault, lo, act int, masks, diff []logic.Word, perPO []logic.Word) []int32 {
	c := s.c
	W := s.w
	vals := s.good.Values()
	bm := s.front
	dirty := s.dirty[:0]
	undoIdx := s.undoIdx[:0]
	undoVal := s.undoVal[:0]
	var force logic.Word
	if f.SA == 1 {
		force = ^logic.Word(0)
	}
	site := f.Gate
	maxW := -1

	if act == 1 {
		// Scalar fast path: one lane, evaluation fused into the loads.
		mask := masks[0]
		var d0 logic.Word
		sbase := site*W + lo
		var v logic.Word
		if t := c.Types[site]; f.Pin < 0 {
			v = force // stem fault on the site output
		} else if t == circuit.Input || t == circuit.DFF {
			v = vals[sbase] // pseudo-PIs have no evaluable fanin
		} else {
			fanin := c.Fanin(site)
			var faninBuf [maxFanin]logic.Word
			in := faninBuf[:len(fanin)]
			for pin, fi := range fanin {
				if pin == f.Pin {
					in[pin] = force // input-branch fault
				} else {
					in[pin] = vals[int(fi)*W+lo]
				}
			}
			v = sim.Eval(c.Types[site], in)
		}
		if d := v ^ vals[sbase]; d != 0 {
			undoIdx = append(undoIdx, int32(sbase))
			undoVal = append(undoVal, vals[sbase])
			vals[sbase] = v
			for _, fo := range c.Fanout(site) {
				tp := int(c.Tpos[fo])
				bm[tp>>6] |= 1 << uint(tp&63)
				if tw := tp >> 6; tw > maxW {
					maxW = tw
				}
			}
			if po := c.POIdx[site]; po >= 0 {
				if dm := d & mask; dm != 0 {
					d0 |= dm
					if perPO != nil {
						perPO[int(po)*W+lo] |= dm
						dirty = append(dirty, po)
					}
				}
			}
		}
		for w := int(c.Tpos[site]) >> 6; w <= maxW; w++ {
			for bm[w] != 0 {
				b := bits.TrailingZeros64(bm[w])
				bm[w] &^= 1 << uint(b)
				id := int(c.Order[w<<6|b])
				t := c.Types[id]
				fanin := c.Fanin(id)
				var v logic.Word
				switch t {
				case circuit.And, circuit.Nand:
					v = vals[int(fanin[0])*W+lo]
					for _, fi := range fanin[1:] {
						v &= vals[int(fi)*W+lo]
					}
					if t == circuit.Nand {
						v = ^v
					}
				case circuit.Or, circuit.Nor:
					v = vals[int(fanin[0])*W+lo]
					for _, fi := range fanin[1:] {
						v |= vals[int(fi)*W+lo]
					}
					if t == circuit.Nor {
						v = ^v
					}
				case circuit.Xor, circuit.Xnor:
					v = vals[int(fanin[0])*W+lo]
					for _, fi := range fanin[1:] {
						v ^= vals[int(fi)*W+lo]
					}
					if t == circuit.Xnor {
						v = ^v
					}
				case circuit.Not:
					v = ^vals[int(fanin[0])*W+lo]
				case circuit.Buf:
					v = vals[int(fanin[0])*W+lo]
				default:
					continue // pseudo-PI (Input/DFF): immune to fanin changes
				}
				base := id*W + lo
				d := v ^ vals[base]
				if d == 0 {
					continue // effect masked here; consumers read the good lane
				}
				undoIdx = append(undoIdx, int32(base))
				undoVal = append(undoVal, vals[base])
				vals[base] = v
				for _, fo := range c.Fanout(id) {
					tp := int(c.Tpos[fo])
					bm[tp>>6] |= 1 << uint(tp&63)
					if tw := tp >> 6; tw > maxW {
						maxW = tw
					}
				}
				if po := c.POIdx[id]; po >= 0 {
					if dm := d & mask; dm != 0 {
						d0 |= dm
						if perPO != nil {
							perPO[int(po)*W+lo] |= dm
							dirty = append(dirty, po)
						}
					}
				}
			}
		}
		diff[0] = d0
		for k, bi := range undoIdx {
			vals[bi] = undoVal[k]
		}
		s.undoIdx, s.undoVal = undoIdx, undoVal
		s.dirty = dirty
		return dirty
	}

	// Multi-lane path: lanes of a gate are contiguous in the strided
	// buffer, so gathers and undo snapshots are plain copies.
	var faninBuf [maxFanin * MaxWords]logic.Word
	var vbuf, dbuf [MaxWords]logic.Word
	sbase := site*W + lo
	v := vbuf[:act]
	if t := c.Types[site]; f.Pin < 0 {
		for l := 0; l < act; l++ {
			v[l] = force
		}
	} else if t == circuit.Input || t == circuit.DFF {
		copy(v, vals[sbase:sbase+act])
	} else {
		fanin := c.Fanin(site)
		in := faninBuf[:len(fanin)*act]
		for pin, fi := range fanin {
			ib := pin * act
			if pin == f.Pin {
				for l := 0; l < act; l++ {
					in[ib+l] = force
				}
			} else {
				fb := int(fi)*W + lo
				copy(in[ib:ib+act], vals[fb:fb+act])
			}
		}
		sim.EvalLanes(c.Types[site], in, len(fanin), act, v)
	}
	commit := func(id, base int, v []logic.Word) {
		var any logic.Word
		d := dbuf[:act]
		gw := vals[base : base+act]
		for l := 0; l < act; l++ {
			dl := v[l] ^ gw[l]
			d[l] = dl
			any |= dl
		}
		if any == 0 {
			return
		}
		undoIdx = append(undoIdx, int32(base))
		undoVal = append(undoVal, gw...)
		copy(gw, v)
		for _, fo := range c.Fanout(id) {
			tp := int(c.Tpos[fo])
			bm[tp>>6] |= 1 << uint(tp&63)
			if tw := tp >> 6; tw > maxW {
				maxW = tw
			}
		}
		if po := c.POIdx[id]; po >= 0 {
			var anyMasked logic.Word
			for l := 0; l < act; l++ {
				dm := d[l] & masks[l]
				d[l] = dm
				anyMasked |= dm
			}
			if anyMasked == 0 {
				return
			}
			for l := 0; l < act; l++ {
				diff[l] |= d[l]
			}
			if perPO != nil {
				pb := int(po)*W + lo
				for l := 0; l < act; l++ {
					perPO[pb+l] |= d[l]
				}
				dirty = append(dirty, po)
			}
		}
	}
	commit(site, sbase, v)
	for w := int(c.Tpos[site]) >> 6; w <= maxW; w++ {
		for bm[w] != 0 {
			b := bits.TrailingZeros64(bm[w])
			bm[w] &^= 1 << uint(b)
			id := int(c.Order[w<<6|b])
			t := c.Types[id]
			if t == circuit.Input || t == circuit.DFF {
				continue
			}
			fanin := c.Fanin(id)
			in := faninBuf[:len(fanin)*act]
			for pin, fi := range fanin {
				fb := int(fi)*W + lo
				copy(in[pin*act:pin*act+act], vals[fb:fb+act])
			}
			v := vbuf[:act]
			sim.EvalLanes(t, in, len(fanin), act, v)
			commit(id, id*W+lo, v)
		}
	}
	for k, bi := range undoIdx {
		copy(vals[bi:int(bi)+act], undoVal[k*act:(k+1)*act])
	}
	s.undoIdx, s.undoVal = undoIdx, undoVal
	s.dirty = dirty
	return dirty
}

// maxFanin bounds the per-gate fanin scratch of the hot loop; it matches
// the single-word engine's historical faninBuf bound.
const maxFanin = 8

// Result summarizes a fault simulation run.
type Result struct {
	Total      int
	Detected   int
	DetectedBy []int // per fault: index of first detecting pattern, -1 if undetected
	Coverage   float64
}

// Run fault-simulates the pattern set against the fault list with fault
// dropping and returns detection results. Faults are not mutated. The
// pattern words are processed Words() lanes at a time, with the good-value
// simulation amortized over the whole block. Within a block, lane 0 is
// staged first through the scalar walk: on random patterns the majority of
// detectable faults fall in the first 64 patterns, and a detected fault
// never needs its remaining lanes, so the cheap lane filters the fault list
// before one packed multi-lane walk covers lanes 1..act-1 for the
// survivors — the faults that were going to need every lane anyway.
// Detection indices and coverage are bit-identical for every lane width.
func (s *Simulator) Run(p *logic.PatternSet, faults []Fault) *Result {
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	res.Detected = s.RunInto(p, faults, res.DetectedBy, nil)
	if res.Total > 0 {
		res.Coverage = float64(res.Detected) / float64(res.Total)
	}
	return res
}

// RunInto is the allocation-free core of Run, for callers that drop pattern
// blocks in a hot loop (the ATPG flow runs one per deterministic block and
// one per compaction block): detBy must have length len(faults) and receives
// each fault's first-detection pattern index (-1 if undetected); liveBuf is
// an optional worklist scratch buffer reused across calls (grown as needed).
// Returns the number of detected faults. Results are identical to Run for
// any lane width.
func (s *Simulator) RunInto(p *logic.PatternSet, faults []Fault, detBy []int, liveBuf []int) int {
	if p.Inputs != len(s.Net.PIs) {
		panic(fmt.Sprintf("fault: pattern width %d != PIs %d", p.Inputs, len(s.Net.PIs)))
	}
	if len(detBy) != len(faults) {
		panic(fmt.Sprintf("fault: detBy length %d != faults %d", len(detBy), len(faults)))
	}
	s.stagedAct = 0 // the group loop below clobbers the staged good values
	detected := 0
	for i := range detBy {
		detBy[i] = -1
	}
	live := liveBuf[:0]
	for i := range faults {
		live = append(live, i)
	}
	W := s.w
	if need := len(s.Net.PIs) * W; cap(s.piBuf) < need {
		s.piBuf = make([]logic.Word, need)
	}
	pi := s.piBuf[:len(s.Net.PIs)*W]
	var masks, diff [MaxWords]logic.Word
	words := p.Words()
	for base := 0; base < words && len(live) > 0; base += W {
		act := W
		if rem := words - base; rem < act {
			act = rem
		}
		for i := range s.Net.PIs {
			pb := i * W
			for l := 0; l < act; l++ {
				pi[pb+l] = p.Bits[i][base+l]
			}
		}
		s.good.Block(pi, act)
		for l := 0; l < act; l++ {
			masks[l] = p.TailMask(base + l)
		}
		// Stage 1: lane 0 as a scalar filter.
		kept := live[:0]
		for _, fi := range live {
			diff[0] = 0
			s.detectLanes(faults[fi], 0, 1, masks[:1], diff[:1], nil)
			if diff[0] != 0 {
				detBy[fi] = base*logic.WordBits + bits.TrailingZeros64(diff[0])
				detected++
			} else {
				kept = append(kept, fi)
			}
		}
		live = kept
		// Stage 2: one packed walk over the remaining lanes for survivors.
		if act > 1 && len(live) > 0 {
			kept = live[:0]
			for _, fi := range live {
				for l := 1; l < act; l++ {
					diff[l] = 0
				}
				s.detectLanes(faults[fi], 1, act-1, masks[1:act], diff[1:act], nil)
				det := -1
				for l := 1; l < act; l++ {
					if diff[l] != 0 {
						// First detecting pattern = lowest set bit of the first live lane.
						det = (base+l)*logic.WordBits + bits.TrailingZeros64(diff[l])
						break
					}
				}
				if det >= 0 {
					detBy[fi] = det
					detected++
				} else {
					kept = append(kept, fi)
				}
			}
			live = kept
		}
	}
	return detected
}

// Stage loads the good-circuit response of every pattern in p into the
// value lanes, preparing the simulator for Probe queries against a frozen
// pattern set. The set must fit one lane group (p.Words() <= Words()) and be
// non-empty. Staging pays the good simulation once; each subsequent Probe
// is a single event-driven cone walk, which is what makes per-fault
// liveness queries against a pending pattern block cheap.
//
// Re-staging the same set is incremental: if p is the set staged last time
// and has only grown since (append-only — the caller must not mutate or
// reset-and-refill a staged set between Stages), only the lane words that
// gained patterns are re-simulated, so staging after each append costs one
// single-lane pass instead of a full-width one. Any Run/RunInto/Dictionary
// call invalidates the staging; the next Stage pays the full pass again.
func (s *Simulator) Stage(p *logic.PatternSet) {
	if p.Inputs != len(s.Net.PIs) {
		panic(fmt.Sprintf("fault: pattern width %d != PIs %d", p.Inputs, len(s.Net.PIs)))
	}
	words := p.Words()
	if words == 0 || words > s.w {
		panic(fmt.Sprintf("fault: Stage needs 1..%d pattern words, got %d", s.w, words))
	}
	lo := 0
	if s.stagedAct > 0 && s.stagedSet == p && p.N >= s.stagedN {
		if p.N == s.stagedN {
			return // nothing appended since the last Stage
		}
		lo = s.stagedN / logic.WordBits // first lane word with new bits
	}
	W := s.w
	if need := len(s.Net.PIs) * W; cap(s.piBuf) < need {
		s.piBuf = make([]logic.Word, need)
	}
	pi := s.piBuf[:len(s.Net.PIs)*W]
	for i := range s.Net.PIs {
		pb := i * W
		for l := lo; l < words; l++ {
			pi[pb+l] = p.Bits[i][l]
		}
	}
	s.good.BlockRange(pi, lo, words)
	s.stagedAct = words
	s.stagedSet = p
	s.stagedN = p.N
	for l := 0; l < words; l++ {
		s.stagedMasks[l] = p.TailMask(l)
	}
}

// Probe reports whether fault f is detected by any pattern of the staged
// set (see Stage). Results are identical to a RunInto call over the same
// set and the single fault.
func (s *Simulator) Probe(f Fault) bool {
	act := s.stagedAct
	if act == 0 {
		panic("fault: Probe without Stage")
	}
	var diff [MaxWords]logic.Word
	s.detectLanes(f, 0, act, s.stagedMasks[:act], diff[:act], nil)
	for l := 0; l < act; l++ {
		if diff[l] != 0 {
			return true
		}
	}
	return false
}

// RunSerial is the baseline used by experiment T7: identical algorithm but
// patterns are applied one at a time (one valid bit per word, one lane),
// forgoing both the 64-way and the multi-word parallelism. Fault dropping
// is still applied.
func (s *Simulator) RunSerial(p *logic.PatternSet, faults []Fault) *Result {
	s.stagedAct = 0
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	for i := range res.DetectedBy {
		res.DetectedBy[i] = -1
	}
	live := make([]int, len(faults))
	for i := range live {
		live[i] = i
	}
	W := s.w
	pi := make([]logic.Word, len(s.Net.PIs)*W)
	for k := 0; k < p.N && len(live) > 0; k++ {
		for i := range pi {
			pi[i] = 0
		}
		for i := range s.Net.PIs {
			if p.Get(k, i) {
				pi[i*W] = 1
			}
		}
		s.good.Block(pi, 1)
		kept := live[:0]
		for _, fi := range live {
			if s.detectWord(faults[fi], 1, nil) != 0 {
				res.DetectedBy[fi] = k
				res.Detected++
			} else {
				kept = append(kept, fi)
			}
		}
		live = kept
	}
	if res.Total > 0 {
		res.Coverage = float64(res.Detected) / float64(res.Total)
	}
	return res
}

// Signature is a fault's full pass/fail dictionary entry: for each pattern
// word and each PO, the bits where the faulty circuit differs from the good
// circuit. Bits[po][word].
type Signature struct {
	Bits [][]logic.Word
}

// FailBits returns the total number of (pattern, PO) failure coordinates.
func (sg *Signature) FailBits() int {
	c := 0
	for _, ws := range sg.Bits {
		for _, w := range ws {
			c += logic.PopCount(w)
		}
	}
	return c
}

// NewSignatures allocates the zeroed signature matrix for faults × POs ×
// words in one backing slice — the merge target for dictionary builds that
// fill disjoint column ranges (DictionaryConcurrentWords locally, the
// cluster coordinator across nodes).
func NewSignatures(nFaults, nPOs, words int) []*Signature {
	return newSignatures(nFaults, nPOs, words)
}

// newSignatures allocates the signature matrix for faults × POs × words in
// one backing slice.
func newSignatures(nFaults, nPOs, words int) []*Signature {
	sigs := make([]*Signature, nFaults)
	backing := make([]logic.Word, nFaults*nPOs*words)
	for i := range sigs {
		sigs[i] = &Signature{Bits: make([][]logic.Word, nPOs)}
		for o := range sigs[i].Bits {
			sigs[i].Bits[o], backing = backing[:words:words], backing[words:]
		}
	}
	return sigs
}

// dictionaryBlock fills signature columns base..base+act-1 (act = up to
// Words() lanes): it simulates the good circuit for the block's pattern
// words and injects every fault once, writing all act columns from a single
// cone walk. Signatures must have been allocated (zeroed) for the full word
// range; distinct blocks touch disjoint storage, which is what makes
// DictionaryConcurrent's block-sharded merge bit-identical to the serial
// run. pi and perPO are caller scratch of len(PIs)*W and len(POs)*W; perPO
// must be zero on entry and is left zero on return (only the touched PO
// lanes are written and cleared, so sparse signatures never pay a full
// clear).
func (s *Simulator) dictionaryBlock(p *logic.PatternSet, faults []Fault, base int, sigs []*Signature, pi, perPO []logic.Word) {
	s.stagedAct = 0
	W := s.w
	words := p.Words()
	act := W
	if rem := words - base; rem < act {
		act = rem
	}
	for i := range s.Net.PIs {
		pb := i * W
		for l := 0; l < act; l++ {
			pi[pb+l] = p.Bits[i][base+l]
		}
	}
	s.good.Block(pi, act)
	var masks, diff [MaxWords]logic.Word
	for l := 0; l < act; l++ {
		masks[l] = p.TailMask(base + l)
	}
	for fi := range faults {
		dirty := s.detectLanes(faults[fi], 0, act, masks[:act], diff[:act], perPO)
		for _, po := range dirty {
			pb := int(po) * W
			row := sigs[fi].Bits[po]
			for l := 0; l < act; l++ {
				row[base+l] = perPO[pb+l]
				perPO[pb+l] = 0
			}
		}
		for l := 0; l < act; l++ {
			diff[l] = 0
		}
	}
}

// Dictionary fault-simulates without dropping and returns every fault's
// full failure signature — the input to fault diagnosis. Pattern words are
// filled Words() columns per cone walk; the signatures are bit-identical
// for every lane width.
func (s *Simulator) Dictionary(p *logic.PatternSet, faults []Fault) []*Signature {
	sigs := newSignatures(len(faults), len(s.Net.POs), p.Words())
	s.DictionaryRange(p, faults, 0, p.Words(), sigs)
	return sigs
}

// DictionaryRange fills the signature columns of the pattern-word range
// [lo, hi) for every fault: the shard-sized unit of distributed dictionary
// construction. sigs must have been allocated (zeroed) for the full word
// range of p (NewSignatures); distinct word ranges write disjoint storage,
// so range shards merge bit-identically in any order. lo must be a multiple
// of Words(), and hi must either extend to p.Words() or keep the range a
// whole number of W-blocks — otherwise a block walk would spill columns
// into a neighboring shard, and the call panics instead.
func (s *Simulator) DictionaryRange(p *logic.PatternSet, faults []Fault, lo, hi int, sigs []*Signature) {
	W := s.w
	words := p.Words()
	if lo < 0 || hi < lo || hi > words || lo%W != 0 || (hi != words && (hi-lo)%W != 0) {
		panic(fmt.Sprintf("fault: DictionaryRange [%d,%d) not W=%d block-aligned within %d words", lo, hi, W, words))
	}
	pi := make([]logic.Word, len(s.Net.PIs)*W)
	perPO := make([]logic.Word, len(s.Net.POs)*W)
	for base := lo; base < hi; base += W {
		s.dictionaryBlock(p, faults, base, sigs, pi, perPO)
	}
}
