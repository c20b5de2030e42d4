package atpg

import (
	"math/rand"
	"time"

	"repro/internal/fault"
	"repro/internal/logic"
)

// deterministicBatched is phase 2 of the flow: one PODEM engine walks the
// remaining faults in fault order, and committed patterns are dropped
// against the fault list in blocks.
//
// A per-pattern flow runs one full live-list fault simulation per committed
// pattern, using 1 of the 64×Words pattern bits a walk can carry. Here
// committed patterns accumulate in a pending block and the full live-list
// walk runs once per 64×Words patterns (the flush). In between, "is this
// fault already detected?" — the only question the per-pattern walks
// answered — is answered lazily per fault: the pending block's good values
// are staged once per change and each query is a single event-driven cone
// walk (fault.Stage/Probe). Total dropping work shrinks from patterns ×
// live-list walks to faults × cone probes + one walk per block.
//
// Every fault sees exactly the detections of the patterns committed before
// it, so the Generate calls, the pattern set and every counter match the
// per-pattern flow bit for bit (pinned by the test-side reference oracle).
func (f *flow) deterministicBatched() {
	blockCap := logic.WordBits * fault.NormalizeWords(f.cfg.Words)
	eng := NewShared(f.comp, f.scoap)
	eng.Guide = f.cfg.Guide
	eng.BacktrackLim = f.cfg.BacktrackLim
	pending := logic.NewPatternSet(len(f.net.PIs), 0) // committed, not yet flushed
	staged := false                                   // pending is staged as it stands

	// flush marks everything the pending block detects and resets it.
	// Faults already marked (committed targets, redundant proofs, probe
	// hits) are not in the live list, so nothing is counted twice.
	flush := func() {
		if pending.N == 0 {
			return
		}
		live, liveIdx := f.liveFaults()
		f.fsim.RunInto(pending, live, f.detBy, f.dropBuf)
		for i, d := range f.detBy {
			if d >= 0 {
				f.detected[liveIdx[i]] = true
				f.res.DetPhase++
			}
		}
		pending.Reset()
		staged = false
	}

	// lap charges the time since the previous lap to *d: one clock read
	// per phase change rather than two per fault.
	mark := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d += now.Sub(mark)
		mark = now
	}

	for fi, fl := range f.faults {
		if f.detected[fi] {
			continue
		}
		if pending.N > 0 {
			if !staged {
				f.fsim.Stage(pending)
				staged = true
			}
			if f.fsim.Probe(fl) {
				f.detected[fi] = true
				f.res.DetPhase++
				continue
			}
		}
		lap(&f.res.DropTime)
		cube, status := eng.Generate(fl)
		switch status {
		case Redundant:
			f.res.Redundant++
			f.detected[fi] = true // excluded from live lists and coverage
		case Aborted:
			f.res.Aborted++
		case Detected:
			rng := rand.New(rand.NewSource(f.fillSeed(fi)))
			bits := fillCube(cube, rng)
			lap(&f.res.GenTime)
			pending.Append(bits)
			f.patterns.Append(bits)
			f.detected[fi] = true
			f.res.DetPhase++
			staged = false
			if pending.N >= blockCap {
				flush()
			}
			lap(&f.res.DropTime)
			continue
		}
		lap(&f.res.GenTime)
	}
	flush()
	lap(&f.res.DropTime)
	f.res.Backtracks = eng.Backtracks
}
