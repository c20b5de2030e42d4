package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// Worker circuit cache: a setup whose netlist hash matches the last accepted
// one reuses the decoded circuit and simulator. These tests pin when the
// cache hits (by circuit.CompileCount, which only a decode that misses
// moves, and by the coordinator's NetlistsSent), that every result still
// equals the serial oracle, and that the checks of a setup run on a hit
// too.

// compiles runs f and returns how many netlist compilations it caused.
func compiles(f func()) int64 {
	before := circuit.CompileCount()
	f()
	return circuit.CompileCount() - before
}

// TestWorkerCacheReuse runs one worker through a sequence of jobs on two
// netlists and pins, per job, both bit-identity with the serial engine and
// whether the worker decoded the netlist (one compile) or reused it (none).
// Oracles are computed up front, so only the worker's compiles are counted.
func TestWorkerCacheReuse(t *testing.T) {
	a, b := circuit.Random(8, 120, 3), circuit.Random(8, 120, 4)
	fa, fb := fault.Universe(a), fault.Universe(b)
	pa, pb := testPatterns(a, 200, 21), testPatterns(b, 200, 22)
	wantA, wantB := serialDetect(t, a, pa, fa), serialDetect(t, b, pb, fb)
	sim, err := fault.NewSimulator(a)
	if err != nil {
		t.Fatal(err)
	}
	wantDict := sim.Dictionary(pa, fa)

	c, lb := startCoordinator(t, Config{ShardFaults: 40})
	startWorker(t, lb, "w")
	ctx := testCtx(t)
	detect := func(n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault, words int, want *fault.Result) func() {
		return func() {
			got, err := c.Detect(ctx, n, p, faults, words)
			if err != nil {
				t.Fatal(err)
			}
			compareDetect(t, got, want)
		}
	}
	steps := []struct {
		name     string
		run      func()
		compiles int64
	}{
		{"detect A", detect(a, pa, fa, 2, wantA), 1},
		{"detect A again", detect(a, pa, fa, 2, wantA), 0},
		{"detect A, other width", detect(a, pa, fa, 8, wantA), 0},
		{"dictionary A", func() {
			got, err := c.Dictionary(ctx, a, pa, fa, 1)
			if err != nil {
				t.Fatal(err)
			}
			compareSigs(t, got, wantDict)
		}, 0},
		{"detect B", detect(b, pb, fb, 2, wantB), 1},
		{"detect A after B", detect(a, pa, fa, 2, wantA), 1},
	}
	for _, s := range steps {
		if got := compiles(s.run); got != s.compiles {
			t.Errorf("%s: %d compiles, want %d", s.name, got, s.compiles)
		}
	}
}

// pipeWorker runs a real Worker whose one connection is the far end of a
// net.Pipe, and returns the near end for the test to play coordinator on.
// The hello frame is consumed.
func pipeWorker(t *testing.T) *rawConn {
	t.Helper()
	near, far := net.Pipe()
	handed := false
	startWorkerDial(t, func() (net.Conn, error) {
		if handed {
			return nil, errors.New("pipe already used")
		}
		handed = true
		return far, nil
	}, "piped")
	t.Cleanup(func() { near.Close() })
	r := &rawConn{t: t, c: near}
	if ft, _ := r.read(); ft != FrameHello {
		t.Fatalf("got %v, want hello", ft)
	}
	return r
}

// setup sends a setup frame and returns the worker's setup reply.
func (r *rawConn) setup(m *setupMsg) *setupReplyMsg {
	r.t.Helper()
	r.write(FrameSetup, m.encode())
	return r.setupReply()
}

// netlist sends a netlist frame and returns the worker's setup reply.
func (r *rawConn) netlist(job uint64, b []byte) *setupReplyMsg {
	r.t.Helper()
	r.write(FrameNetlist, (&netlistMsg{JobID: job, NetBytes: b}).encode())
	return r.setupReply()
}

// setupReply reads one setup reply, failing the test on any other frame.
func (r *rawConn) setupReply() *setupReplyMsg {
	r.t.Helper()
	ft, payload := r.read()
	if ft != FrameSetupReply {
		r.t.Fatalf("got %v, want setup-reply", ft)
	}
	m, err := decodeSetupReply(payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return m
}

// detectShard sends one detect shard and returns its DetBy, failing the
// test on any other reply.
func (r *rawConn) detectShard(job uint64, shard, lo, hi uint32) []int32 {
	r.t.Helper()
	r.write(FrameShard, (&shardMsg{JobID: job, Shard: shard, Lo: lo, Hi: hi}).encode())
	ft, payload := r.read()
	if ft != FrameResult {
		r.t.Fatalf("job %d shard %d: got %v, want result", job, shard, ft)
	}
	res, err := decodeResult(payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return res.DetBy
}

// expectError sends one shard and requires a FrameError for it, returning
// the reported shard index.
func (r *rawConn) expectError(job uint64, shard, lo, hi uint32) uint32 {
	r.t.Helper()
	r.write(FrameShard, (&shardMsg{JobID: job, Shard: shard, Lo: lo, Hi: hi}).encode())
	ft, payload := r.read()
	if ft != FrameError {
		r.t.Fatalf("job %d shard %d: got %v, want error", job, shard, ft)
	}
	em, err := decodeError(payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return em.Shard
}

// TestWorkerCacheHitStillChecksSetup pins that a cached circuit never
// waives a setup's checks, and that netlist bytes are checked wherever they
// travel. With netlist A cached: a setup whose fault list names a gate
// outside A is refused on the hit path; a setup naming another circuit
// misses, and a netlist frame whose bytes do not hash to that setup's
// NetHash is refused before it is decoded. Each refusal arrives in the
// setup reply (the coordinator turns it into ErrWorkerFailed, see
// TestClusterSetupRejectionFailsJob), installs no job, and leaves the
// cached A in place: the next valid job on A is answered ready at once,
// compiles nothing and matches the serial oracle. A netlist frame the
// worker did not ask for is a protocol error that ends the session.
func TestWorkerCacheHitStillChecksSetup(t *testing.T) {
	n, other := circuit.Random(8, 120, 3), circuit.Random(8, 120, 4)
	faults := fault.Universe(n)
	p := testPatterns(n, 200, 31)
	want := serialDetect(t, n, p, faults)
	half := uint32(len(faults) / 2)
	all := uint32(len(faults))
	netA, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	netB, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	setupOn := func(net *circuit.Netlist, job uint64) *setupMsg {
		m, err := decodeSetup(mustSetup(t, job, KindDetect, 2, net, p, faults))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	setupA := func(job uint64) *setupMsg { return setupOn(n, job) }
	checkDetBy := func(t *testing.T, job uint64, from int, got []int32) {
		t.Helper()
		for i, v := range got {
			if int(v) != want.DetectedBy[from+i] {
				t.Fatalf("job %d fault %d: DetectedBy %d, want %d", job, from+i, v, want.DetectedBy[from+i])
			}
		}
	}
	wantReply := func(t *testing.T, got *setupReplyMsg, job uint64, status setupStatus) {
		t.Helper()
		if got.JobID != job || got.Status != status {
			t.Fatalf("setup reply %+v, want job %d status %d", got, job, status)
		}
	}
	// firstJob sends job 1 on a fresh worker: a miss, so A travels once.
	firstJob := func(t *testing.T, r *rawConn) {
		t.Helper()
		wantReply(t, r.setup(setupA(1)), 1, setupNeedNet)
		wantReply(t, r.netlist(1, netA), 1, setupReady)
		checkDetBy(t, 1, 0, r.detectShard(1, 0, 0, half))
	}
	fullJob := func(t *testing.T, r *rawConn, job uint64) {
		t.Helper()
		if d := compiles(func() {
			wantReply(t, r.setup(setupA(job)), job, setupReady)
			checkDetBy(t, job, 0, r.detectShard(job, 0, 0, half))
			checkDetBy(t, job, int(half), r.detectShard(job, 1, half, all))
		}); d != 0 {
			t.Fatalf("job %d on cached A: %d compiles, want 0", job, d)
		}
	}

	// Flip a bit of B's netlist name: the bytes still decode, to a circuit
	// of another name, so only the hash check can refuse them.
	flippedB := append([]byte(nil), netB...)
	flippedB[len("ITRN")+1+2] ^= 0x01
	outOfRange := setupA(2)
	outOfRange.Faults = append([]fault.Fault(nil), faults...)
	outOfRange.Faults[1].Gate = len(n.Gates) + 3

	if _, err := circuit.UnmarshalNetlist(flippedB); err != nil {
		t.Fatalf("flipped netlist does not decode: %v", err)
	}
	for _, tc := range []struct {
		name   string
		bad    func(t *testing.T, r *rawConn) *setupReplyMsg
		reason string
	}{
		{"flipped netlist bytes", func(t *testing.T, r *rawConn) *setupReplyMsg {
			wantReply(t, r.setup(setupOn(other, 2)), 2, setupNeedNet)
			return r.netlist(2, flippedB)
		}, "content hash mismatch"},
		{"fault gate out of range", func(t *testing.T, r *rawConn) *setupReplyMsg {
			return r.setup(outOfRange)
		}, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := pipeWorker(t)
			firstJob(t, r)
			got := tc.bad(t, r)
			wantReply(t, got, 2, setupRefused)
			if !strings.Contains(got.Msg, tc.reason) {
				t.Fatalf("refusal %q, want one naming %q", got.Msg, tc.reason)
			}
			// Nothing installed: job 1 was replaced by the refused setup.
			if sh := r.expectError(1, 1, half, all); sh != 1 {
				t.Fatalf("stale job 1 shard reported as %d, want 1", sh)
			}
			fullJob(t, r, 3)
		})
	}

	t.Run("netlist not asked for", func(t *testing.T) {
		r := pipeWorker(t)
		firstJob(t, r)
		r.write(FrameNetlist, (&netlistMsg{JobID: 1, NetBytes: netA}).encode())
		r.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if ft, _, err := ReadFrame(r.c, 0); err == nil {
			t.Fatalf("worker answered %v to an unrequested netlist, want the session closed", ft)
		}
	})
}

// TestWorkerCachePanicDropsEntry pins that a recovered engine panic empties
// the cache: the simulator may have stopped mid-walk, so the next setup on
// the same netlist misses — the worker asks for the netlist and decodes
// and compiles it afresh — and its results match the serial oracle.
func TestWorkerCachePanicDropsEntry(t *testing.T) {
	n := circuit.Random(8, 120, 3)
	faults := fault.Universe(n)
	p := testPatterns(n, 200, 41)
	want := serialDetect(t, n, p, faults)
	m, err := decodeSetup(mustSetup(t, 1, KindDetect, 2, n, p, faults))
	if err != nil {
		t.Fatal(err)
	}
	netBytes, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var cache netCache
	miss := func() (*workerJob, error) {
		net, err := verifyNetlist(netBytes, m.NetHash)
		if err != nil {
			return nil, err
		}
		return newWorkerJob(m, net, &cache)
	}
	if _, err := miss(); err != nil {
		t.Fatal(err)
	}
	// A job built by hand skips validateJob, so its out-of-range fault
	// reaches the engine and panics there.
	bad := &workerJob{id: 2, kind: KindDetect, sim: cache.sim, p: p,
		faults: []fault.Fault{{Gate: len(n.Gates) + 3, Pin: -1}}, cache: &cache}
	if _, err := bad.exec(&shardMsg{JobID: 2, Lo: 0, Hi: 1}); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("exec of an out-of-range fault: err = %v, want a recovered panic", err)
	}
	if cache.net != nil || cache.sim != nil || cache.holds(m.NetHash) {
		t.Fatal("cache entry kept after an engine panic")
	}

	var j *workerJob
	if d := compiles(func() { j, err = miss() }); err != nil || d != 1 {
		t.Fatalf("setup after panic: %d compiles, err %v; want a fresh decode (1 compile)", d, err)
	}
	res, err := j.exec(&shardMsg{JobID: 1, Lo: 0, Hi: uint32(len(faults))})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.DetBy {
		if int(v) != want.DetectedBy[i] {
			t.Fatalf("fault %d: DetectedBy %d, want %d", i, v, want.DetectedBy[i])
		}
	}
}

// readyBarrier holds each worker's result frames for a job until every one
// of n workers has reported ready for it, so no worker can finish a job
// before the others have joined it. Frames are written with one Write call
// each, so a Write is a whole frame. Closing any connection releases every
// held frame, so a failing test still tears its sessions down.
type readyBarrier struct {
	n        int
	mu       sync.Mutex
	cond     *sync.Cond
	ready    map[uint64]int // job → workers that reported ready
	released bool
}

func newReadyBarrier(n int) *readyBarrier {
	b := &readyBarrier{n: n, ready: map[uint64]int{}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// barrierConn is a worker connection that passes its writes through a
// readyBarrier.
type barrierConn struct {
	net.Conn
	b *readyBarrier
}

func (c *barrierConn) Write(p []byte) (int, error) {
	if len(p) >= wire.HeaderSize+8 {
		job := binary.BigEndian.Uint64(p[wire.HeaderSize:])
		c.b.mu.Lock()
		switch FrameType(p[5]) {
		case FrameSetupReply:
			if m, err := decodeSetupReply(p[wire.HeaderSize:]); err == nil && m.Status == setupReady {
				c.b.ready[job]++
				c.b.cond.Broadcast()
			}
		case FrameResult:
			for c.b.ready[job] < c.b.n && !c.b.released {
				c.b.cond.Wait()
			}
		}
		c.b.mu.Unlock()
	}
	return c.Conn.Write(p)
}

func (c *barrierConn) Close() error {
	c.b.mu.Lock()
	c.b.released = true
	c.b.cond.Broadcast()
	c.b.mu.Unlock()
	return c.Conn.Close()
}

// startSessionWorker runs one worker session over a loopback connection
// with a cache the test owns, so a test can reach into the worker's cache
// between jobs. The session does not reconnect.
func startSessionWorker(t *testing.T, lb *Loopback, id string, cache *netCache, b *readyBarrier) {
	t.Helper()
	raw, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	conn := &barrierConn{Conn: raw, b: b}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		(&Worker{ID: id}).session(ctx, conn, cache)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// TestClusterNetlistsSent pins when a netlist crosses the wire, by the
// coordinator's NetlistsSent counter: once per worker that does not hold
// the circuit of the job's content hash, and never to one that does. Every
// job still matches the serial oracle. A readyBarrier makes both workers
// take part in every job.
func TestClusterNetlistsSent(t *testing.T) {
	n := circuit.Random(8, 120, 3)
	p := testPatterns(n, 200, 51)
	c, lb := startCoordinator(t, Config{ShardFaults: 4})
	var caches [2]netCache
	barrier := newReadyBarrier(len(caches))
	for i := range caches {
		startSessionWorker(t, lb, fmt.Sprintf("w%d", i), &caches[i], barrier)
	}
	ctx := testCtx(t)
	detect := func() {
		faults := fault.Universe(n)
		want := serialDetect(t, n, p, faults)
		got, err := c.Detect(ctx, n, p, faults, 2)
		if err != nil {
			t.Fatal(err)
		}
		compareDetect(t, got, want)
	}
	steps := []struct {
		name string
		pre  func()
		sent int64
	}{
		{"first job, two fresh workers", func() {}, 2},
		{"same netlist again", func() {}, 0},
		{"netlist changed by AddGate", func() {
			if _, err := n.AddGate("extra", circuit.And, n.Gates[20].Name, n.Gates[40].Name); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"after an engine panic on one worker", func() {
			bad := &workerJob{id: 99, kind: KindDetect, sim: caches[0].sim, p: p,
				faults: []fault.Fault{{Gate: len(n.Gates) + 3, Pin: -1}}, cache: &caches[0]}
			if _, err := bad.exec(&shardMsg{JobID: 99, Lo: 0, Hi: 1}); err == nil {
				t.Fatal("out-of-range fault did not panic the engine")
			}
		}, 1},
	}
	for _, s := range steps {
		s.pre()
		before := c.Stats().NetlistsSent
		detect()
		if got := c.Stats().NetlistsSent - before; got != s.sent {
			t.Errorf("%s: %d netlists sent, want %d", s.name, got, s.sent)
		}
	}
}
