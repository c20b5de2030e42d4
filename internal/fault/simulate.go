package fault

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// MaxWords is the largest supported pattern-word packing: a W-word pass
// carries W*64 patterns through every gate evaluation, so a full-width
// engine amortizes one cone walk over up to 512 patterns.
const MaxWords = sim.MaxLanes

// Options sets the width and the fan-out of a fault-simulation engine.
// Every engine entry point takes it; atpg.Config and experiments.Config
// embed it. Results are bit-identical for any value of either field.
type Options struct {
	// Workers bounds the shards a concurrent driver runs at once
	// (<= 0 selects GOMAXPROCS). A single Simulator ignores it.
	Workers int
	// Words is the number of 64-bit pattern words packed per cone walk; it
	// is normalized by Lanes.
	Words int
}

// Lanes returns the lane width Words selects among {1, 2, 4, 8}: values
// <= 1 select 1, other values round down to the nearest supported width,
// capped at MaxWords. Every engine entry point applies it, so callers may
// thread raw flag values through unchecked.
func (o Options) Lanes() int {
	switch w := o.Words; {
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

// Simulator performs parallel-pattern stuck-at fault simulation: the good
// circuit is simulated once per pattern block, then fault effects are
// injected and their structural fanout cones re-evaluated event-driven —
// only gates reached by a live effect are touched, and a walk terminates as
// soon as the effect dies (every faulty lane equals its good lane and
// nothing downstream can differ). A fault is detected when any primary
// output differs from the good value in any pattern bit. Drop mode (Run,
// RunInto) and the dictionary walk once per fanout-free-region stem for
// all of the region's faults (see dropStage and dictionaryBlock); Probe,
// transitions and RunSerial walk once per fault (serial-fault PPSFP).
//
// The engine packs W = Words() 64-bit pattern words per gate (lanes), so a
// single cone walk amortizes over up to W*64 patterns, and the live-effect
// early exit triggers only when every lane has died. The simulator owns one
// value buffer, indexed by topological position: sim.Propagate writes the
// good values into it, and the walk reads and patches the same buffer, so
// there is no copy. Its stride is the lanes the pattern set needs,
// min(W, words), so a 2-word set on a W=8 simulator walks a buffer a
// quarter the size. The lanes of one position stay contiguous, and every
// gate evaluation folds its fanin lanes where they live (sim.FoldLanes).
//
// All graph structure (the position-indexed tables the walk reads) lives in
// the shared immutable circuit.Compiled IR; a Simulator owns only its
// mutable scratch (the value lanes, the frontier bitmap, the undo log and
// the drop pass's lane windows), so per-worker instances over one compiled
// graph are cheap — O(gates) each, independent of circuit depth or cone
// sizes.
type Simulator struct {
	Net *circuit.Netlist
	c   *circuit.Compiled
	w   int // lanes (pattern words) per pass
	// vals holds the good values the walk reads, indexed by topological
	// position: lane l of position p at vals[p*stride+l], so positions
	// [0, NumPIs) hold the PI words. simulateGood sets stride and fills
	// vals; a walk patches it in place and restores it before returning.
	// Both are zero until the first simulateGood.
	vals   []logic.Word
	stride int
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
	// goodAct is the good-value memo of RunInto: when > 0, the value lanes
	// [0, goodAct) hold the good response to the PI words stored in their PI
	// positions, so a RunInto over a one-group set with equal PI words skips
	// the good simulation. Every other path that rewrites the value lanes
	// clears it.
	goodAct int
	// goodSims counts good-circuit simulations (Propagate passes); tests
	// pin it.
	goodSims int
	// gateEvals counts the gates detectLanes evaluated (fault sites and
	// frontier gates); tests pin it, so a change of data layout is shown
	// not to change the walk's work.
	gateEvals int

	// Drop-pass scratch (dropStage). Within a stage over act lanes, ffr
	// holds one act-lane window per position: at a position inside a
	// fanout-free region the memoized sensitization of its path to the
	// region's stem, at a stem the union of its faults' reach and, after the
	// stem walk, the lanes where that union is observed. ffrUsed marks the
	// windows the stage wrote — memoized positions and stems to walk — so
	// the stage can leave ffr and ffrUsed all zero; ffrDirty is set while a
	// stage runs, so one that panicked is cleared by the next. chain is the
	// backward pass's path stack.
	ffr      []logic.Word
	ffrDirty bool
	ffrUsed  []uint64
	chain    []int32
	// reachBuf holds the reach of each fault of the region a dictionary
	// block is filling, act lanes per fault.
	reachBuf []logic.Word
	// sensSteps counts the gates whose side inputs the backward pass read;
	// tests pin it next to gateEvals.
	sensSteps int

	// Staged-probe state (Stage/Probe): the lane count and tail masks of the
	// pattern set whose good values currently occupy the value lanes, plus
	// the set identity and pattern count for incremental re-staging of
	// append-only sets.
	stagedAct   int
	stagedMasks [MaxWords]logic.Word
	stagedSet   *logic.PatternSet
	stagedN     int
}

// NewSimulator compiles a single-word fault simulator for the netlist: New
// with the zero Options.
func NewSimulator(n *circuit.Netlist) (*Simulator, error) {
	return New(n, Options{})
}

// NewSimulatorWords is New with only Words set. Only perfbench calls it;
// the benchmark PR that moves perfbench to Options deletes it.
func NewSimulatorWords(n *circuit.Netlist, words int) (*Simulator, error) {
	return New(n, Options{Words: words})
}

// New compiles a fault simulator packing o.Lanes() pattern words per cone
// walk. The compiled IR is cached on the netlist, so repeated calls share
// one graph.
func New(n *circuit.Netlist, o Options) (*Simulator, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	return newSimulator(c, o.Lanes()), nil
}

// newSimulator builds a simulator of w lanes (already normalized) over the
// compiled IR. Simulators of any width share the IR, so the shard drivers
// cheaply build one per shard.
func newSimulator(c *circuit.Compiled, w int) *Simulator {
	return &Simulator{
		Net:     c.Net,
		c:       c,
		w:       w,
		front:   make([]uint64, (c.NumGates()+63)/64),
		ffrUsed: make([]uint64, (c.NumGates()+63)/64),
	}
}

// Compiled returns the shared immutable IR the simulator reads.
func (s *Simulator) Compiled() *circuit.Compiled { return s.c }

// Words returns the number of 64-bit pattern words packed per pass.
func (s *Simulator) Words() int { return s.w }

// detectWord simulates fault f against lane 0 of the good values currently
// held in the value buffer and returns the word of pattern bits where any
// faulty primary output differs. When perPO is non-nil the difference word
// of each PO index is OR-accumulated into it at stride Words(). It is the
// single-word view of detectLanes, kept for the serial baseline and the
// oracle tests.
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
// caller owns clearing them — detectLanes never zeroes perPO). It is the
// per-fault form of the engine: the fault site's faulty lanes (siteLanes)
// fed to the walk kernel (walk).
func (s *Simulator) detectLanes(f Fault, lo, act int, masks, diff []logic.Word, perPO []logic.Word) []int32 {
	var v [MaxWords]logic.Word
	site := s.siteLanes(f, lo, act, v[:act])
	s.gateEvals++ // the fault site
	return s.walk(site, v[:act], lo, act, masks, diff, perPO)
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

// walk is the event-driven kernel shared by every fault path: it sets
// position site to the lanes v over the window [lo, lo+act) and propagates
// the change, OR-accumulating the masked PO differences into diff (and
// perPO, as detectLanes describes). A per-fault caller passes the fault
// site's faulty lanes; the drop pass passes a stem with its faults' reach
// flipped.
//
// The walk runs in topological-position space: it reads only the
// position-indexed tables of the compiled IR (Pos, PosFanin, PosFanout,
// PosKind) and the position-indexed good values, so an event costs no
// gate-ID to position translation and touches a value buffer only as wide
// as the lanes simulated. The work-list is a frontier bitmap over
// positions: evaluating a gate whose lanes differ from the good lanes sets
// the bits of its fanouts, and the walk consumes set bits in increasing
// position (fanouts always sit at strictly higher positions, so each gate
// is evaluated at most once, after all of its faulty fanins). Only gates
// actually fed by a live effect are ever visited, and the walk terminates
// exactly when the effect has died in every lane — an empty frontier is the
// all-lanes-dead early exit. The bitmap is self-clearing (each consumed bit
// is cleared before its gate is processed), so the scratch never needs a
// bulk reset between walks.
//
// Faulty lanes are patched directly into the good-value buffer and logged
// in the undo list; the walk epilogue replays the log to restore the good
// values. Gate evaluation therefore reads one array with no faulty-or-good
// selection per fanin, which is what keeps the per-event cost flat.
//
// act == 1 takes a specialized scalar path with the gate evaluation fused
// into the fanin loads: the drop-mode Run stages lane 0 of every block
// through it as a cheap filter before the remaining lanes are walked
// packed. The packed path folds each gate's fanin lanes straight out of
// the buffer with sim.FoldLanes. The two stay apart because one loop for
// both ran the 32k-gate drop benchmark (BenchmarkFaultSim) 40 % slower.
func (s *Simulator) walk(site int, v []logic.Word, lo, act int, masks, diff []logic.Word, perPO []logic.Word) []int32 {
	c := s.c
	W := s.w
	S, vals := s.stride, s.vals
	pos, kind := c.Pos, c.PosKind
	bm := s.front
	dirty := s.dirty[:0]
	undoIdx := s.undoIdx[:0]
	undoVal := s.undoVal[:0]
	maxW := -1
	evals := 0

	if act == 1 {
		// Scalar fast path: one lane, evaluation fused into the loads.
		mask := masks[0]
		var d0 logic.Word
		sbase := site*S + lo
		if d := v[0] ^ vals[sbase]; d != 0 {
			undoIdx = append(undoIdx, int32(sbase))
			undoVal = append(undoVal, vals[sbase])
			vals[sbase] = v[0]
			for _, fp := range c.PosFanout[pos[site].Out:pos[site+1].Out] {
				bm[fp>>6] |= 1 << uint(fp&63)
				maxW = max(maxW, int(fp>>6))
			}
			if po := pos[site].PO; po >= 0 {
				if dm := d & mask; dm != 0 {
					d0 |= dm
					if perPO != nil {
						perPO[int(po)*W+lo] |= dm
						dirty = append(dirty, po)
					}
				}
			}
		}
		for w := site >> 6; w <= maxW; w++ {
			for bm[w] != 0 {
				b := bits.TrailingZeros64(bm[w])
				bm[w] &^= 1 << uint(b)
				p := w<<6 | b
				rec := pos[p]
				fanin := c.PosFanin[rec.In:pos[p+1].In]
				var v logic.Word
				switch t := kind[p]; t {
				case circuit.And, circuit.Nand:
					v = vals[int(fanin[0])*S+lo]
					for _, fp := range fanin[1:] {
						v &= vals[int(fp)*S+lo]
					}
					if t == circuit.Nand {
						v = ^v
					}
				case circuit.Or, circuit.Nor:
					v = vals[int(fanin[0])*S+lo]
					for _, fp := range fanin[1:] {
						v |= vals[int(fp)*S+lo]
					}
					if t == circuit.Nor {
						v = ^v
					}
				case circuit.Xor, circuit.Xnor:
					v = vals[int(fanin[0])*S+lo]
					for _, fp := range fanin[1:] {
						v ^= vals[int(fp)*S+lo]
					}
					if t == circuit.Xnor {
						v = ^v
					}
				case circuit.Not:
					v = ^vals[int(fanin[0])*S+lo]
				case circuit.Buf:
					v = vals[int(fanin[0])*S+lo]
				default:
					continue // pseudo-PI (Input/DFF): immune to fanin changes
				}
				evals++
				base := p*S + lo
				d := v ^ vals[base]
				if d == 0 {
					continue // effect masked here; consumers read the good lane
				}
				undoIdx = append(undoIdx, int32(base))
				undoVal = append(undoVal, vals[base])
				vals[base] = v
				for _, fp := range c.PosFanout[rec.Out:pos[p+1].Out] {
					bm[fp>>6] |= 1 << uint(fp&63)
					maxW = max(maxW, int(fp>>6))
				}
				if rec.PO >= 0 {
					if dm := d & mask; dm != 0 {
						d0 |= dm
						if perPO != nil {
							perPO[int(rec.PO)*W+lo] |= dm
							dirty = append(dirty, rec.PO)
						}
					}
				}
			}
		}
		diff[0] |= d0
		for k, bi := range undoIdx {
			vals[bi] = undoVal[k]
		}
		s.gateEvals += evals
		s.undoIdx, s.undoVal = undoIdx, undoVal
		s.dirty = dirty
		return dirty
	}

	// Multi-lane path: lanes of a position are contiguous in the strided
	// buffer, so FoldLanes reads each fanin's lanes in place and undo
	// snapshots are plain copies.
	var vbuf, dbuf [MaxWords]logic.Word
	commit := func(p, base int, v []logic.Word) {
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
		for _, fp := range c.PosFanout[pos[p].Out:pos[p+1].Out] {
			bm[fp>>6] |= 1 << uint(fp&63)
			maxW = max(maxW, int(fp>>6))
		}
		if po := pos[p].PO; po >= 0 {
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
	commit(site, site*S+lo, v)
	for w := site >> 6; w <= maxW; w++ {
		for bm[w] != 0 {
			b := bits.TrailingZeros64(bm[w])
			bm[w] &^= 1 << uint(b)
			p := w<<6 | b
			t := kind[p]
			if t == circuit.Input || t == circuit.DFF {
				continue
			}
			v := vbuf[:act]
			sim.FoldLanes(t, vals, c.PosFanin[pos[p].In:pos[p+1].In], S, lo, v)
			evals++
			commit(p, p*S+lo, v)
		}
	}
	for k, bi := range undoIdx {
		copy(vals[bi:int(bi)+act], undoVal[k*act:(k+1)*act])
	}
	s.gateEvals += evals
	s.undoIdx, s.undoVal = undoIdx, undoVal
	s.dirty = dirty
	return dirty
}

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
// dropped first through the scalar walk: on random patterns the majority of
// detectable faults fall in the first 64 patterns, and a detected fault
// never needs its remaining lanes, so the cheap lane filters the fault list
// before one packed multi-lane pass covers lanes 1..act-1 for the
// survivors — the faults that were going to need every lane anyway. Each
// stage drops by fanout-free region (dropStage): one walk per region stem,
// not one per fault. Detection indices and coverage are bit-identical for
// every lane width.
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
//
// A set that fits one lane group (p.Words() <= Words()) reuses the good
// values of the previous RunInto when its PI words are equal, so RunInto
// over consecutive fault shards of one set (the cluster worker's detect
// loop) simulates the good circuit once, not once per shard. The memo is
// keyed on the PI words, not on the set pointer: a set refilled in place
// pays only the PIs x lanes word compare, and the tail masks are rebuilt
// from p.N on every call. Stage, RunSerial and the dictionary paths clear
// the memo, and a RunInto that panics leaves it cleared. RunInto itself
// invalidates any Stage staging.
func (s *Simulator) RunInto(p *logic.PatternSet, faults []Fault, detBy []int, liveBuf []int) int {
	if p.Inputs != len(s.Net.PIs) {
		panic(fmt.Sprintf("fault: pattern width %d != PIs %d", p.Inputs, len(s.Net.PIs)))
	}
	if len(detBy) != len(faults) {
		panic(fmt.Sprintf("fault: detBy length %d != faults %d", len(detBy), len(faults)))
	}
	s.stagedAct = 0 // the group loop below clobbers the staged good values
	memo := s.goodAct
	s.goodAct = 0 // re-armed only when this call returns normally
	detected := 0
	for i := range detBy {
		detBy[i] = -1
	}
	live := liveBuf[:0]
	for i := range faults {
		live = append(live, i)
	}
	W := s.w
	var masks [MaxWords]logic.Word
	words := p.Words()
	for base := 0; base < words && len(live) > 0; base += W {
		act := W
		if rem := words - base; rem < act {
			act = rem
		}
		if words > W || act != memo || !s.samePIs(p, act) {
			s.simulateGood(p, base, 0, act, min(W, words))
			memo = act
		}
		for l := 0; l < act; l++ {
			masks[l] = p.TailMask(base + l)
		}
		// Stage 1: lane 0 as a scalar filter.
		var d int
		live, d = s.dropStage(faults, live, base, 0, 1, masks[:1], detBy)
		detected += d
		// Stage 2: one packed pass over the remaining lanes for survivors.
		if act > 1 && len(live) > 0 {
			live, d = s.dropStage(faults, live, base, 1, act-1, masks[1:act], detBy)
			detected += d
		}
	}
	if words <= W {
		s.goodAct = memo
	}
	return detected
}

// dropStage drops the live faults over the lane window [lo, lo+act) of the
// pattern block at word base, by fanout-free region (FFR) instead of one
// walk per fault. For each live fault it computes reach, the lanes in which
// the fault flips its region's stem: the fault's activation (the good value
// XOR the stuck value, read at the driver of a branch fault) & the
// sensitization of its path to the stem & the tail masks. It ORs reach into
// the stem's union, walks each stem with a non-zero union once, injecting
// the good value XOR the union, and a fault's detected lanes are then its
// reach & the lanes the stem walk observed. This is exact: inside a region
// exactly one input of each gate on the path differs, so a gate passes the
// change iff its side inputs are non-controlling; and lanes are
// independent, so whether a flip of the stem is observed in a lane does not
// depend on which other lanes are flipped. Injecting only the union keeps a
// stem walk as short as its faults' own effects.
//
// Each detected fault's first detecting pattern goes to detBy; the survivors
// are compacted in place at the front of live and returned with the number
// detected.
func (s *Simulator) dropStage(faults []Fault, live []int, base, lo, act int, masks []logic.Word, detBy []int) ([]int, int) {
	S, vals := s.stride, s.vals
	s.ffrBegin(act)
	ffr, used, stem := s.ffr, s.ffrUsed, s.c.FFRStem
	var r [MaxWords]logic.Word
	for _, fi := range live {
		st := s.reach(faults[fi], lo, act, masks, r[:act])
		if st < 0 {
			continue
		}
		u := ffr[st*act : st*act+act]
		for l := range u {
			u[l] |= r[l]
		}
		used[st>>6] |= 1 << uint(st&63)
	}
	// The tail masks enter once, through reach: a stem walk flips only
	// lanes of the union, so its PO differences need no mask.
	var v, ones [MaxWords]logic.Word
	for l := range ones {
		ones[l] = ^logic.Word(0)
	}
	for w, bm := range used {
		for ; bm != 0; bm &= bm - 1 {
			st := w<<6 | bits.TrailingZeros64(bm)
			if int(stem[st]) != st {
				continue // a memoized sensitization, not a union
			}
			b := st*S + lo
			u := ffr[st*act : st*act+act]
			for l := range u {
				v[l] = vals[b+l] ^ u[l]
				u[l] = 0
			}
			s.walk(st, v[:act], lo, act, ones[:act], u, nil) // u becomes the observed lanes
		}
	}
	detected := 0
	kept := live[:0]
	for _, fi := range live {
		f := faults[fi]
		st := int(stem[s.c.Tpos[f.Gate]])
		obs := ffr[st*act : st*act+act]
		var seen logic.Word
		for _, o := range obs {
			seen |= o
		}
		det := -1
		if seen != 0 {
			s.reach(f, lo, act, masks, r[:act])
			for l, o := range obs {
				if d := r[l] & o; d != 0 {
					// First detection = lowest set bit of the first detecting lane.
					det = (base+lo+l)*logic.WordBits + bits.TrailingZeros64(d)
					break
				}
			}
		}
		if det >= 0 {
			detBy[fi] = det
			detected++
		} else {
			kept = append(kept, fi)
		}
	}
	s.ffrEnd(act)
	return kept, detected
}

// ffrBegin readies the per-position windows (ffr, ffrUsed) for a pass over
// act lanes: it clears what a pass that panicked left behind and grows ffr
// to one act-lane window per position.
func (s *Simulator) ffrBegin(act int) {
	if s.ffrDirty {
		clear(s.ffr)
		clear(s.ffrUsed)
	}
	if n := s.c.NumGates() * act; len(s.ffr) < n {
		s.ffr = make([]logic.Word, n)
	}
	s.ffrDirty = true
}

// ffrEnd zeroes the windows the pass over act lanes marked in ffrUsed, and
// the marks, so the next pass starts from all-zero scratch.
func (s *Simulator) ffrEnd(act int) {
	for w, bm := range s.ffrUsed {
		for ; bm != 0; bm &= bm - 1 {
			x := w<<6 | bits.TrailingZeros64(bm)
			clear(s.ffr[x*act : x*act+act])
		}
		s.ffrUsed[w] = 0
	}
	s.ffrDirty = false
}

// reach writes into r the lanes of the window [lo, lo+act) in which fault f
// flips the stem of its fanout-free region, and returns that stem's
// position, or -1 when f cannot flip it in any lane.
func (s *Simulator) reach(f Fault, lo, act int, masks, r []logic.Word) int {
	c := s.c
	S, vals := s.stride, s.vals
	site := int(c.Tpos[f.Gate])
	src := site // where the fault is activated
	if f.Pin >= 0 {
		if t := c.PosKind[site]; t == circuit.Input || t == circuit.DFF {
			return -1 // pseudo-PIs are immune to fanin changes
		}
		src = int(c.PosFanin[int(c.Pos[site].In)+f.Pin])
	}
	var force logic.Word
	if f.SA == 1 {
		force = ^logic.Word(0)
	}
	var any logic.Word
	b := src*S + lo
	for l := range r {
		r[l] = (vals[b+l] ^ force) & masks[l]
		any |= r[l]
	}
	if any == 0 {
		return -1
	}
	if f.Pin >= 0 {
		if any = s.sideSens(site, -1, f.Pin, lo, r); any == 0 {
			return -1
		}
	}
	if int(c.FFRStem[site]) != site {
		sens := s.sens(site, lo, act)
		any = 0
		for l := range r {
			r[l] &= sens[l]
			any |= r[l]
		}
		if any == 0 {
			return -1
		}
	}
	return int(c.FFRStem[site])
}

// sens returns the lanes of the window [lo, lo+act) in which a change at
// position p (not a stem) reaches its stem: the AND of the side-input
// sensitization of every gate on the path. It is memoized per stage, so a
// backward pass from p stops at the first position whose answer is known,
// and a zero answer is passed down the rest of the path without reading a
// gate.
func (s *Simulator) sens(p, lo, act int) []logic.Word {
	c := s.c
	done := s.ffrUsed
	chain := s.chain[:0]
	for q := p; int(c.FFRStem[q]) != q && done[q>>6]&(1<<uint(q&63)) == 0; q = c.FFRNext(q) {
		chain = append(chain, int32(q))
	}
	for i := len(chain) - 1; i >= 0; i-- {
		x := int(chain[i])
		nx := c.FFRNext(x)
		w := s.ffr[x*act : x*act+act]
		var any logic.Word
		if int(c.FFRStem[nx]) == nx { // a change at the stem is the stem's
			for l := range w {
				w[l] = ^logic.Word(0)
			}
			any = 1
		} else {
			for l, v := range s.ffr[nx*act : nx*act+act] {
				w[l] = v
				any |= v
			}
		}
		if any != 0 {
			s.sideSens(nx, int32(x), -1, lo, w)
		}
		done[x>>6] |= 1 << uint(x&63)
	}
	s.chain = chain
	return s.ffr[p*act : p*act+act]
}

// sideSens ANDs into r (the lane window starting at lo) the lanes in which
// gate q passes a change on one input to its output, and returns the OR of
// the result. The changed input is pin skipPin, or the one pin driven by
// position skipPos; every other input must be non-controlling, 1 for
// AND/NAND and 0 for OR/NOR, and XOR/XNOR/NOT/BUF pass every change.
func (s *Simulator) sideSens(q int, skipPos int32, skipPin, lo int, r []logic.Word) logic.Word {
	c := s.c
	S, vals := s.stride, s.vals
	s.sensSteps++
	if t := c.PosKind[q]; t == circuit.And || t == circuit.Nand || t == circuit.Or || t == circuit.Nor {
		var flip logic.Word // the side inputs must read ^flip
		if t == circuit.Or || t == circuit.Nor {
			flip = ^logic.Word(0)
		}
		for pin, fp := range c.PosFanin[c.Pos[q].In:c.Pos[q+1].In] {
			if pin != skipPin && fp != skipPos {
				b := int(fp)*S + lo
				for l := range r {
					r[l] &= vals[b+l] ^ flip
				}
			}
		}
	}
	var any logic.Word
	for _, w := range r {
		any |= w
	}
	return any
}

// samePIs reports whether the first act PI words of p equal the lanes the
// value buffer was last simulated from (PI i is position i).
func (s *Simulator) samePIs(p *logic.PatternSet, act int) bool {
	S, vals := s.stride, s.vals
	for i, row := range p.Bits {
		key := vals[i*S : i*S+act]
		for l, w := range row[:act] {
			if w != key[l] {
				return false
			}
		}
	}
	return true
}

// simulateGood runs the good circuit over lanes [lo, hi), lane l carrying
// pattern word base+l of p, at the given stride (hi <= stride <= Words()):
// it writes the PI words straight into the PI positions of the value
// buffer and propagates them. A change of stride reuses the buffer's
// backing array when it holds NumGates()*stride words; lanes outside
// [lo, hi) keep their values only while the stride is unchanged, which is
// what incremental staging relies on.
func (s *Simulator) simulateGood(p *logic.PatternSet, base, lo, hi, stride int) {
	n := s.c.NumGates() * stride
	s.vals, s.stride = slices.Grow(s.vals[:0], n)[:n], stride
	vals := s.vals
	if hi-lo == 1 {
		for i, row := range p.Bits {
			vals[i*stride+lo] = row[base+lo]
		}
	} else {
		for i, row := range p.Bits {
			copy(vals[i*stride+lo:i*stride+hi], row[base+lo:base+hi])
		}
	}
	sim.Propagate(s.c, vals, stride, lo, hi)
	s.goodSims++
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
// Stage clears the good-value memo of RunInto.
func (s *Simulator) Stage(p *logic.PatternSet) {
	if p.Inputs != len(s.Net.PIs) {
		panic(fmt.Sprintf("fault: pattern width %d != PIs %d", p.Inputs, len(s.Net.PIs)))
	}
	words := p.Words()
	if words == 0 || words > s.w {
		panic(fmt.Sprintf("fault: Stage needs 1..%d pattern words, got %d", s.w, words))
	}
	s.goodAct = 0
	lo := 0
	if s.stagedAct > 0 && s.stagedSet == p && p.N >= s.stagedN {
		if p.N == s.stagedN {
			return // nothing appended since the last Stage
		}
		lo = s.stagedN / logic.WordBits // first lane word with new bits
	}
	s.simulateGood(p, 0, lo, words, s.w) // the staged set grows: keep room for every lane
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

// RunSerial is the baseline used by experiment T7: patterns are applied
// one at a time (one valid bit per word, one lane), forgoing both the
// 64-way and the multi-word parallelism, and each live fault is walked on
// its own from its site, where Run walks once per fanout-free-region stem.
// Fault dropping is still applied, and the detection results equal Run's.
func (s *Simulator) RunSerial(p *logic.PatternSet, faults []Fault) *Result {
	s.stagedAct, s.goodAct = 0, 0
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	for i := range res.DetectedBy {
		res.DetectedBy[i] = -1
	}
	live := make([]int, len(faults))
	for i := range live {
		live[i] = i
	}
	one := logic.NewPatternSet(len(s.Net.PIs), 1) // pattern k in bit 0
	for k := 0; k < p.N && len(live) > 0; k++ {
		for i, row := range one.Bits {
			row[0] = 0
			if p.Get(k, i) {
				row[0] = 1
			}
		}
		s.simulateGood(one, 0, 0, 1, 1)
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
// fill disjoint column ranges (DictionaryConcurrent locally, the
// cluster coordinator across nodes).
func NewSignatures(nFaults, nPOs, words int) []*Signature {
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

// stemOrder returns the fault indices grouped by the stem of their site's
// fanout-free region, as keys stem<<32 | index in ascending order: one run
// of keys per stem, its faults in fault order. It depends only on the fault
// list, so a dictionary build computes it once for all of its blocks.
func stemOrder(c *circuit.Compiled, faults []Fault) []uint64 {
	keys := make([]uint64, len(faults))
	for i, f := range faults {
		keys[i] = uint64(c.FFRStem[c.Tpos[f.Gate]])<<32 | uint64(i)
	}
	slices.Sort(keys)
	return keys
}

// dictionaryBlock fills signature columns base..base+act-1 (act = up to
// Words() lanes) by fanout-free region, like dropStage: for the faults of
// one region (order, from stemOrder) it computes each fault's reach, walks
// the stem once injecting the union of their reach with per-PO differences
// on, and writes each fault's row at PO o as reach & the stem's difference
// at o. Lanes are independent, so a fault's PO differences are exactly the
// stem's in the lanes the fault flips it. A region holding one fault is
// walked from the fault site instead, which needs no sensitization memo:
// a one-fault dictionary (diagnosis.Observe) never allocates it.
//
// Signatures must have been allocated (zeroed) for the full word range;
// distinct blocks touch disjoint storage, which is what makes
// DictionaryConcurrent's block-sharded merge bit-identical to the serial
// run. perPO is caller scratch of len(POs)*W; it must be zero on entry and
// is left zero on return (only the touched PO lanes are written and
// cleared, so sparse signatures never pay a full clear).
func (s *Simulator) dictionaryBlock(p *logic.PatternSet, faults []Fault, order []uint64, base int, sigs []*Signature, perPO []logic.Word) {
	s.stagedAct, s.goodAct = 0, 0
	W := s.w
	words := p.Words()
	act := min(W, words-base)
	s.simulateGood(p, base, 0, act, min(W, words))
	S, vals := s.stride, s.vals
	// diff takes the walks' OR of PO differences, which no row reads: the
	// rows come from perPO.
	var masks, diff, ones, u, v [MaxWords]logic.Word
	for l := 0; l < act; l++ {
		masks[l] = p.TailMask(base + l)
		ones[l] = ^logic.Word(0)
	}
	memo := false // whether this block has readied the sensitization memo
	for k := 0; k < len(order); {
		st := int(order[k] >> 32)
		n := 1
		for k+n < len(order) && int(order[k+n]>>32) == st {
			n++
		}
		group := order[k : k+n]
		k += n
		var dirty []int32
		if n == 1 {
			fi := int(uint32(group[0]))
			dirty = s.detectLanes(faults[fi], 0, act, masks[:act], diff[:act], perPO)
			fillRows(sigs[fi], dirty, base, W, ones[:act], perPO)
		} else {
			if !memo {
				s.ffrBegin(act)
				memo = true
			}
			if cap(s.reachBuf) < n*act {
				s.reachBuf = make([]logic.Word, n*act)
			}
			rs := s.reachBuf[:n*act]
			clear(u[:act])
			for j, key := range group {
				r := rs[j*act : j*act+act]
				if s.reach(faults[uint32(key)], 0, act, masks[:act], r) < 0 {
					clear(r)
					continue
				}
				for l, x := range r {
					u[l] |= x
				}
			}
			var any logic.Word
			b := st * S
			for l := 0; l < act; l++ {
				v[l] = vals[b+l] ^ u[l]
				any |= u[l]
			}
			if any == 0 {
				continue
			}
			// The tail masks enter through reach, as in dropStage.
			dirty = s.walk(st, v[:act], 0, act, ones[:act], diff[:act], perPO)
			for j, key := range group {
				fillRows(sigs[uint32(key)], dirty, base, W, rs[j*act:j*act+act], perPO)
			}
		}
		for _, po := range dirty {
			clear(perPO[int(po)*W : int(po)*W+act])
		}
	}
	if memo {
		s.ffrEnd(act)
	}
}

// fillRows writes r & the PO differences of the last walk into sig's
// columns base..base+len(r)-1 at the POs the walk touched (dirty). perPO
// has stride W.
func fillRows(sig *Signature, dirty []int32, base, W int, r, perPO []logic.Word) {
	for _, po := range dirty {
		row := sig.Bits[po][base : base+len(r)]
		d := perPO[int(po)*W:]
		for l, m := range r {
			row[l] = m & d[l]
		}
	}
}

// Dictionary fault-simulates without dropping and returns every fault's
// full failure signature — the input to fault diagnosis. Pattern words are
// filled Words() columns per stem walk (see dictionaryBlock); the
// signatures are bit-identical for every lane width and fault order.
func (s *Simulator) Dictionary(p *logic.PatternSet, faults []Fault) []*Signature {
	sigs := NewSignatures(len(faults), len(s.Net.POs), p.Words())
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
	perPO := make([]logic.Word, len(s.Net.POs)*W)
	order := stemOrder(s.c, faults)
	for base := lo; base < hi; base += W {
		s.dictionaryBlock(p, faults, order, base, sigs, perPO)
	}
}
