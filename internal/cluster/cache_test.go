package cluster

import (
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// ---------------------------------------------------------------------------
// Worker circuit cache: a setup whose netlist hash matches the last accepted
// one reuses the decoded circuit and simulator. These tests pin when the
// cache hits (by circuit.CompileCount, which only a decode that misses
// moves), that every result still equals the serial oracle, and that the
// checks of a setup run on a hit too.

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

	c, lb := startCoordinator(t, Config{ShardFaults: 40, ShardWords: 2})
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
// waives a setup's checks: with netlist A cached, a setup carrying A's
// hash over flipped netlist bytes, and one whose fault list names a gate
// outside A, are both refused with errorShardSetup (which the coordinator
// turns into ErrWorkerFailed, see TestClusterSetupRejectionFailsJob),
// install no job, and leave the cached A in place: the next valid job on A
// compiles nothing and matches the serial oracle.
func TestWorkerCacheHitStillChecksSetup(t *testing.T) {
	n := circuit.Random(8, 120, 3)
	faults := fault.Universe(n)
	p := testPatterns(n, 200, 31)
	want := serialDetect(t, n, p, faults)
	half := uint32(len(faults) / 2)
	all := uint32(len(faults))

	setupA := func(job uint64) *setupMsg {
		payload, _, err := encodeSetup(job, KindDetect, 2, n, p, faults)
		if err != nil {
			t.Fatal(err)
		}
		m, err := decodeSetup(payload)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	checkDetBy := func(t *testing.T, job uint64, from int, got []int32) {
		t.Helper()
		for i, v := range got {
			if int(v) != want.DetectedBy[from+i] {
				t.Fatalf("job %d fault %d: DetectedBy %d, want %d", job, from+i, v, want.DetectedBy[from+i])
			}
		}
	}
	fullJob := func(t *testing.T, r *rawConn, job uint64) {
		t.Helper()
		if d := compiles(func() {
			r.write(FrameSetup, setupA(job).encode())
			checkDetBy(t, job, 0, r.detectShard(job, 0, 0, half))
			checkDetBy(t, job, int(half), r.detectShard(job, 1, half, all))
		}); d != 0 {
			t.Fatalf("job %d on cached A: %d compiles, want 0", job, d)
		}
	}

	flipped := setupA(0)
	flipped.NetBytes = append([]byte(nil), flipped.NetBytes...)
	flipped.NetBytes[len(flipped.NetBytes)/2] ^= 0x10
	outOfRange := setupA(0)
	outOfRange.Faults = append([]fault.Fault(nil), faults...)
	outOfRange.Faults[1].Gate = len(n.Gates) + 3

	for _, tc := range []struct {
		name string
		bad  *setupMsg
	}{
		{"flipped netlist bytes", flipped},
		{"fault gate out of range", outOfRange},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := pipeWorker(t)
			r.write(FrameSetup, setupA(1).encode())
			checkDetBy(t, 1, 0, r.detectShard(1, 0, 0, half))

			tc.bad.JobID = 2
			r.write(FrameSetup, tc.bad.encode())
			if sh := r.expectError(2, 1, half, all); sh != errorShardSetup {
				t.Fatalf("bad setup reported shard %d, want errorShardSetup", sh)
			}
			// Nothing installed: job 1 was replaced by the refused setup.
			if sh := r.expectError(1, 1, half, all); sh != 1 {
				t.Fatalf("stale job 1 shard reported as %d, want 1", sh)
			}
			fullJob(t, r, 3)
		})
	}
}

// TestWorkerCachePanicDropsEntry pins that a recovered engine panic empties
// the cache: the simulator may have stopped mid-walk, so the next setup on
// the same netlist decodes and compiles afresh, and its results match the
// serial oracle.
func TestWorkerCachePanicDropsEntry(t *testing.T) {
	n := circuit.Random(8, 120, 3)
	faults := fault.Universe(n)
	p := testPatterns(n, 200, 41)
	want := serialDetect(t, n, p, faults)
	payload, _, err := encodeSetup(1, KindDetect, 2, n, p, faults)
	if err != nil {
		t.Fatal(err)
	}
	var cache netCache
	if _, _, err := newWorkerJob(payload, &cache); err != nil {
		t.Fatal(err)
	}
	// A job built by hand skips validateJob, so its out-of-range fault
	// reaches the engine and panics there.
	bad := &workerJob{id: 2, kind: KindDetect, sim: cache.sim, p: p,
		faults: []fault.Fault{{Gate: len(n.Gates) + 3, Pin: -1}}, cache: &cache}
	if _, err := bad.exec(&shardMsg{JobID: 2, Lo: 0, Hi: 1}); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("exec of an out-of-range fault: err = %v, want a recovered panic", err)
	}
	if cache.net != nil || cache.sim != nil {
		t.Fatal("cache entry kept after an engine panic")
	}

	var j *workerJob
	var reused bool
	if d := compiles(func() { j, reused, err = newWorkerJob(payload, &cache) }); err != nil || reused || d != 1 {
		t.Fatalf("setup after panic: reused %v, %d compiles, err %v; want a fresh decode (1 compile)", reused, d, err)
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
