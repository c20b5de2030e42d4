package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
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
// reported to the coordinator — a refused setup in its setup reply, a
// failed shard as FrameError — and the session continues; wire-level
// failures end the session so Run can reconnect. Every coordinator frame
// gets exactly one reply except Done, so the exchange alternates strictly
// (an unsolicited write can deadlock an unbuffered pipe).
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
	var pending *setupMsg // a setup waiting for the netlist it asked for
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
			m, derr := decodeSetup(payload)
			if derr != nil {
				return derr
			}
			j, pending = nil, nil
			if !cache.holds(m.NetHash) {
				pending = m
				reply := &setupReplyMsg{JobID: m.JobID, Status: setupNeedNet}
				if err := WriteFrame(conn, FrameSetupReply, reply.encode()); err != nil {
					return err
				}
				continue
			}
			var werr error
			j, werr = newWorkerJob(m, cache.net, cache)
			if err := w.replySetup(conn, m.JobID, j, werr, "reused"); err != nil {
				return err
			}
		case FrameNetlist:
			nm, derr := decodeNetlist(payload)
			if derr != nil {
				return derr
			}
			if pending == nil || nm.JobID != pending.JobID {
				return fmt.Errorf("%w: netlist for job %d not asked for", ErrProtocol, nm.JobID)
			}
			m := pending
			pending = nil
			n, werr := verifyNetlist(nm.NetBytes, m.NetHash)
			if werr == nil {
				j, werr = newWorkerJob(m, n, cache)
			}
			if err := w.replySetup(conn, m.JobID, j, werr, "decoded"); err != nil {
				return err
			}
		case FrameShard:
			sm, derr := decodeShard(payload)
			if derr != nil {
				return derr
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
			j, pending = nil, nil // job over; await the next setup on this connection
		default:
			return fmt.Errorf("%w: %v from coordinator", ErrProtocol, ft)
		}
	}
}

// replySetup logs the outcome of a setup and writes its reply: ready if
// job j was installed, refused with werr's text otherwise.
func (w *Worker) replySetup(conn net.Conn, jobID uint64, j *workerJob, werr error, how string) error {
	reply := &setupReplyMsg{JobID: jobID, Status: setupReady}
	if werr != nil {
		w.logf("worker %s: setup refused: %v", w.ID, werr)
		reply.Status, reply.Msg = setupRefused, werr.Error()
	} else {
		w.logf("worker %s: job %d: circuit %s (%d gates)", w.ID, j.id, how, len(j.sim.Net.Gates))
	}
	return WriteFrame(conn, FrameSetupReply, reply.encode())
}

// netCache is a worker's one-entry circuit cache: the content hash of the
// last accepted setup's netlist, the decoded netlist (which caches its
// compiled IR) and the fault simulator over it. A setup with the same hash
// reuses all three, so a worker receives, decodes and compiles a netlist
// once, not once per job, and RunInto's good-value memo holds across jobs
// on equal patterns. Only the bytes are skipped on a hit: a setup's
// patterns and faults are checked against the circuit on a hit as on a
// miss, and netlist bytes are checked against their hash whenever they
// arrive. Jobs run one at a time, so the simulator is never shared by two
// of them at once.
type netCache struct {
	hash [32]byte
	net  *circuit.Netlist
	sim  *fault.Simulator
}

// holds reports whether the cache holds the circuit with content hash h.
func (c *netCache) holds(h [32]byte) bool {
	return c.net != nil && c.hash == h
}

// workerJob is one job's local state: the reconstructed circuit, pattern
// set and fault list, and a simulator.
type workerJob struct {
	id     uint64
	kind   JobKind
	sim    *fault.Simulator
	p      *logic.PatternSet
	faults []fault.Fault
	detBy  []int     // detect scratch, reused across shards
	cache  *netCache // holds sim; emptied if the engine panics
}

// verifyNetlist checks netlist bytes against the setup's content hash and
// only then decodes them. The encoding's round trip preserves gate IDs and
// PI/PO order exactly, so fault indices and signature rows mean the same
// thing on both ends.
func verifyNetlist(b []byte, want [32]byte) (*circuit.Netlist, error) {
	if sha256.Sum256(b) != want {
		return nil, fmt.Errorf("%w: netlist content hash mismatch", ErrMalformed)
	}
	return circuit.UnmarshalNetlist(b)
}

// newWorkerJob checks setup m against circuit n — the cached one on a hit,
// the freshly decoded one on a miss — and builds the local job state. Only
// an accepted setup installs n (and its simulator) in the cache: a refused
// one leaves the cache as it was.
func newWorkerJob(m *setupMsg, n *circuit.Netlist, cache *netCache) (*workerJob, error) {
	words := int(m.Words)
	if (fault.Options{Words: words}).Lanes() != words {
		return nil, fmt.Errorf("%w: invalid lane width %d", ErrMalformed, words)
	}
	if m.Inputs != len(n.PIs) {
		return nil, fmt.Errorf("%w: pattern width %d != PIs %d", ErrMalformed, m.Inputs, len(n.PIs))
	}
	p := &logic.PatternSet{Inputs: m.Inputs, N: m.NPat, Bits: m.PatBits}
	if err := validateJob(n, p, m.Faults); err != nil {
		return nil, err
	}
	sim := cache.sim
	if n != cache.net || sim.Words() != words {
		// A new circuit compiles here. A cached one at another lane width
		// reuses the IR cached on the netlist and builds only the
		// simulator's scratch.
		var err error
		if sim, err = fault.New(n, fault.Options{Words: words}); err != nil {
			return nil, err
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
	}, nil
}

// exec runs one shard through the local engine. Engine panics (which the
// range validation should make unreachable) are converted to errors so a
// poisoned shard reports FrameError instead of killing the worker. A panic
// may leave the simulator's scratch mid-walk (frontier bits set, value
// lanes patched), so it also empties the circuit cache: the next setup
// asks for the netlist and decodes it afresh.
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
		if lo < 0 || lo >= words || lo%W != 0 || hi != min(lo+W, words) {
			return nil, fmt.Errorf("%w: word range [%d,%d) is not one %d-word block of %d", ErrMalformed, lo, hi, W, words)
		}
		// The engine hands out only nonzero rows: dictionaries are sparse
		// (most faults fail at few POs), and zero rows are exactly the
		// merge target's initial state.
		j.sim.DictionaryBlock(j.p, j.faults, lo, func(fi, po, _ int, row []logic.Word) {
			res.Rows = append(res.Rows, sigEntry{Fi: uint32(fi), Po: uint32(po), Words: slices.Clone(row)})
		})
	default:
		return nil, fmt.Errorf("%w: job kind %v", ErrMalformed, j.kind)
	}
	return res, nil
}
