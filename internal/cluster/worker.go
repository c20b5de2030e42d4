package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/chaos"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/wire"
)

// Worker is a cluster compute node: it dials the coordinator, receives job
// setups and shard assignments, runs the local single-process engines on
// each shard and streams results back. Run keeps reconnecting with
// exponential backoff until its context is cancelled, so a worker survives
// coordinator restarts and transient network loss. It keeps the circuit of
// its last setup across jobs and reconnects (see netCache).
type Worker struct {
	// ID names the worker in coordinator logs.
	ID string
	// Dial opens a connection to the coordinator (TCP, Loopback.Dial, ...).
	Dial func() (net.Conn, error)
	// MinBackoff/MaxBackoff bound the reconnect delay (defaults 50ms / 2s).
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Seed drives the reconnect jitter stream. Zero derives a seed from ID,
	// so a fleet of workers that lost the same coordinator at the same
	// instant still spreads its reconnect attempts instead of stampeding
	// the restarted process in lockstep.
	Seed uint64
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// seed returns the jitter seed: Seed if set, else a digest of ID. Distinct
// IDs give decorrelated jitter streams by construction.
func (w *Worker) seed() uint64 {
	if w.Seed != 0 {
		return w.Seed
	}
	s := sha256.Sum256([]byte(w.ID))
	return binary.BigEndian.Uint64(s[:8])
}

// jitterBackoff draws the actual reconnect delay for one attempt:
// uniformly in (backoff/2, backoff], so the exponential envelope is kept
// (delays never exceed backoff, never collapse below half of it) while
// synchronized workers decorrelate within one attempt.
func jitterBackoff(rng *chaos.Rand, backoff time.Duration) time.Duration {
	if backoff <= 1 {
		return backoff
	}
	half := backoff / 2
	return backoff - time.Duration(rng.Uint64()%uint64(half))
}

// logf sends one progress line to Logf, if set.
func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run connects, serves, and reconnects until ctx is cancelled (its error is
// then returned). Connection failures back off exponentially; a session
// that reached the coordinator resets the backoff. The circuit cache lives
// here, so it outlives each session: a coordinator that restarts and
// resumes a job hands a surviving worker the same circuit again.
func (w *Worker) Run(ctx context.Context) error {
	minB := w.MinBackoff
	if minB <= 0 {
		minB = 50 * time.Millisecond
	}
	maxB := w.MaxBackoff
	if maxB < minB {
		maxB = 2 * time.Second
	}
	rng := chaos.NewRand(w.seed())
	backoff := minB
	var cache netCache
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := w.Dial()
		if err != nil {
			w.logf("worker %s: dial: %v (retry in %v)", w.ID, err, backoff)
		} else {
			err = w.session(ctx, conn, &cache)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err != nil && err != io.EOF {
				w.logf("worker %s: session ended: %v", w.ID, err)
			}
			backoff = minB // the coordinator was reachable; restart fast
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(jitterBackoff(rng, backoff)):
		}
		backoff = min(backoff*2, maxB)
	}
}

// session runs one connection: hello handshake, then a setup/shard loop.
// Semantic failures (bad job definition, bad shard range, engine panic) are
// reported to the coordinator as FrameError and the session continues;
// wire-level failures end the session so Run can reconnect.
func (w *Worker) session(ctx context.Context, conn net.Conn, cache *netCache) error {
	defer conn.Close()
	// Watchdog: cancelling ctx closes the connection, which unblocks any
	// pending ReadFrame — the only way to interrupt a blocking read.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()

	hello := &helloMsg{Proto: WireVersion, ID: w.ID}
	if err := WriteFrame(conn, FrameHello, hello.encode()); err != nil {
		return err
	}
	var j *workerJob
	var setupErr error     // deterministic setup rejection, reported on the
	var setupErrJob uint64 // next shard request to keep strict alternation
	for {
		ft, payload, err := ReadFrame(conn, wire.DefaultMaxFrame)
		if err != nil {
			if err == io.EOF {
				return nil // orderly close at a frame boundary
			}
			return err
		}
		switch ft {
		case FrameSetup:
			var werr error
			var reused bool
			j, reused, werr = newWorkerJob(payload, cache)
			setupErr = nil
			if werr == nil {
				how := "decoded"
				if reused {
					how = "reused"
				}
				w.logf("worker %s: job %d: circuit %s (%d gates)", w.ID, j.id, how, len(j.sim.Net.Gates))
			} else {
				w.logf("worker %s: setup refused: %v", w.ID, werr)
				// A rejected setup is deterministic: the coordinator must
				// fail the job instead of re-dispatching forever. The reply
				// waits for the next shard request — the coordinator is
				// reading then, so the exchange stays strictly alternating
				// (an unsolicited write can deadlock an unbuffered pipe).
				j, setupErr = nil, werr
				if m, err := decodeSetup(payload); err == nil {
					setupErrJob = m.JobID
				} else {
					setupErrJob = 0
				}
			}
		case FrameShard:
			sm, derr := decodeShard(payload)
			if derr != nil {
				return derr
			}
			if j == nil && setupErr != nil && sm.JobID == setupErrJob {
				em := &errorMsg{JobID: sm.JobID, Shard: errorShardSetup, Msg: setupErr.Error()}
				if err := WriteFrame(conn, FrameError, em.encode()); err != nil {
					return err
				}
				continue
			}
			if j == nil || sm.JobID != j.id {
				em := &errorMsg{JobID: sm.JobID, Shard: sm.Shard, Msg: ErrJobMismatch.Error()}
				if err := WriteFrame(conn, FrameError, em.encode()); err != nil {
					return err
				}
				continue
			}
			res, werr := j.exec(sm)
			if werr != nil {
				em := &errorMsg{JobID: sm.JobID, Shard: sm.Shard, Msg: werr.Error()}
				if err := WriteFrame(conn, FrameError, em.encode()); err != nil {
					return err
				}
				continue
			}
			if err := WriteFrame(conn, FrameResult, res.encode()); err != nil {
				return err
			}
		case FrameDone:
			j = nil // job over; await the next setup on this connection
		default:
			return fmt.Errorf("%w: %v from coordinator", ErrProtocol, ft)
		}
	}
}

// netCache is a worker's one-entry circuit cache: the content hash of the
// last accepted setup's netlist, the decoded netlist (which caches its
// compiled IR) and the fault simulator over it. A setup with the same hash
// reuses all three, so a worker decodes and compiles once per netlist, not
// once per job, and RunInto's good-value memo holds across jobs on equal
// patterns. The entry is only a shortcut past the decode: every setup, hit
// or miss, still has its bytes checked against its hash and its patterns
// and faults checked against the circuit. Jobs run one at a time, so the
// simulator is never shared by two of them at once.
type netCache struct {
	hash [32]byte
	net  *circuit.Netlist
	sim  *fault.Simulator
}

// workerJob is one job's local state: the reconstructed circuit, pattern
// set and fault list, a simulator, and lazily the full-width signature
// matrix for dictionary jobs (its columns outside the assigned shards stay
// untouched; only assigned column ranges are read back out).
type workerJob struct {
	id     uint64
	kind   JobKind
	sim    *fault.Simulator
	p      *logic.PatternSet
	faults []fault.Fault
	detBy  []int              // detect scratch, reused across shards
	sigs   []*fault.Signature // dictionary target, allocated on first shard
	cache  *netCache          // holds sim; emptied if the engine panics
}

// newWorkerJob validates a setup payload and builds the local job state,
// reporting whether the circuit came from cache. The netlist arrives in
// its canonical binary encoding, whose round trip preserves gate IDs and
// PI/PO order exactly, so fault indices and signature rows mean the same
// thing on both ends; the embedded content hash is re-verified as the
// job's circuit identity before the cache is consulted. A refused setup
// leaves the cache as it was.
func newWorkerJob(payload []byte, cache *netCache) (*workerJob, bool, error) {
	m, err := decodeSetup(payload)
	if err != nil {
		return nil, false, err
	}
	if sum := sha256.Sum256(m.NetBytes); !bytes.Equal(sum[:], m.NetHash[:]) {
		return nil, false, fmt.Errorf("%w: netlist content hash mismatch", ErrMalformed)
	}
	words := int(m.Words)
	if (fault.Options{Words: words}).Lanes() != words {
		return nil, false, fmt.Errorf("%w: invalid lane width %d", ErrMalformed, words)
	}
	n := cache.net
	reused := n != nil && cache.hash == m.NetHash
	if !reused {
		if n, err = circuit.UnmarshalNetlist(m.NetBytes); err != nil {
			return nil, false, err
		}
	}
	if m.Inputs != len(n.PIs) {
		return nil, false, fmt.Errorf("%w: pattern width %d != PIs %d", ErrMalformed, m.Inputs, len(n.PIs))
	}
	p := &logic.PatternSet{Inputs: m.Inputs, N: m.NPat, Bits: m.PatBits}
	if err := validateJob(n, p, m.Faults); err != nil {
		return nil, false, err
	}
	sim := cache.sim
	if !reused || sim.Words() != words {
		// A miss compiles here. A hit at another lane width reuses the
		// IR cached on the netlist and builds only the simulator's scratch.
		if sim, err = fault.New(n, fault.Options{Words: words}); err != nil {
			return nil, false, err
		}
	}
	*cache = netCache{hash: m.NetHash, net: n, sim: sim}
	return &workerJob{
		id:     m.JobID,
		kind:   m.Kind,
		sim:    sim,
		p:      p,
		faults: m.Faults,
		cache:  cache,
	}, reused, nil
}

// exec runs one shard through the local engine. Engine panics (which the
// range validation should make unreachable) are converted to errors so a
// poisoned shard reports FrameError instead of killing the worker. A panic
// may leave the simulator's scratch mid-walk (frontier bits set, value
// lanes patched), so it also empties the circuit cache: the next setup
// decodes afresh.
func (j *workerJob) exec(sm *shardMsg) (res *resultMsg, err error) {
	defer func() {
		if r := recover(); r != nil {
			*j.cache = netCache{}
			res, err = nil, fmt.Errorf("worker engine panic: %v", r)
		}
	}()
	lo, hi := int(sm.Lo), int(sm.Hi)
	res = &resultMsg{JobID: j.id, Shard: sm.Shard, Kind: j.kind, Lo: sm.Lo, Hi: sm.Hi}
	switch j.kind {
	case KindDetect:
		if lo < 0 || hi < lo || hi > len(j.faults) {
			return nil, fmt.Errorf("%w: fault range [%d,%d) of %d", ErrMalformed, lo, hi, len(j.faults))
		}
		shard := j.faults[lo:hi]
		if cap(j.detBy) < len(shard) {
			j.detBy = make([]int, len(shard))
		}
		detBy := j.detBy[:len(shard)]
		// A fault's first-detection index depends only on (circuit,
		// patterns, fault) — per-shard dropping skips work strictly after
		// that index — so shard results equal the serial run's entries.
		j.sim.RunInto(j.p, shard, detBy, nil)
		res.DetBy = make([]int32, len(shard))
		for i, v := range detBy {
			res.DetBy[i] = int32(v)
		}
	case KindDictionary:
		words := j.p.Words()
		W := j.sim.Words()
		if lo < 0 || hi < lo || hi > words || lo%W != 0 || (hi != words && (hi-lo)%W != 0) {
			return nil, fmt.Errorf("%w: word range [%d,%d) not %d-block aligned in %d", ErrMalformed, lo, hi, W, words)
		}
		if j.sigs == nil {
			j.sigs = fault.NewSignatures(len(j.faults), len(j.sim.Net.POs), words)
		}
		j.sim.DictionaryRange(j.p, j.faults, lo, hi, j.sigs)
		// Ship only nonzero rows: dictionaries are sparse (most faults fail
		// at few POs), and zero rows are exactly the merge target's initial
		// state.
		span := hi - lo
		for fi, sig := range j.sigs {
			for po, bits := range sig.Bits {
				seg := bits[lo:hi]
				nz := false
				for _, w := range seg {
					if w != 0 {
						nz = true
						break
					}
				}
				if nz {
					row := sigEntry{Fi: uint32(fi), Po: uint32(po), Words: make([]logic.Word, span)}
					copy(row.Words, seg)
					res.Rows = append(res.Rows, row)
				}
			}
		}
	default:
		return nil, fmt.Errorf("%w: job kind %v", ErrMalformed, j.kind)
	}
	return res, nil
}
