package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// ---------------------------------------------------------------------------
// Harness: a coordinator on a Loopback transport plus workers driven by
// cancellable contexts, all torn down by t.Cleanup.

func startCoordinatorOn(t *testing.T, cfg Config, l net.Listener) *Coordinator {
	t.Helper()
	c := New(cfg)
	go c.Serve(l)
	t.Cleanup(func() { c.Close() })
	return c
}

func startCoordinator(t *testing.T, cfg Config) (*Coordinator, *Loopback) {
	t.Helper()
	lb := NewLoopback()
	return startCoordinatorOn(t, cfg, lb), lb
}

func startWorkerDial(t *testing.T, dial func() (net.Conn, error), id string) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{ID: id, Dial: dial, MinBackoff: 10 * time.Millisecond}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

func startWorker(t *testing.T, lb *Loopback, id string) context.CancelFunc {
	return startWorkerDial(t, lb.Dial, id)
}

func testPatterns(n *circuit.Netlist, npat int, seed int64) *logic.PatternSet {
	rng := rand.New(rand.NewSource(seed))
	p := logic.NewPatternSet(len(n.PIs), npat)
	p.RandFill(rng.Uint64)
	return p
}

func serialDetect(t *testing.T, n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault) *fault.Result {
	t.Helper()
	sim, err := fault.NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	return sim.RunSerial(p, faults)
}

func compareDetect(t *testing.T, got, want *fault.Result) {
	t.Helper()
	if got.Total != want.Total || got.Detected != want.Detected || got.Coverage != want.Coverage {
		t.Fatalf("summary: got %d/%d cov %g, want %d/%d cov %g",
			got.Detected, got.Total, got.Coverage, want.Detected, want.Total, want.Coverage)
	}
	for i := range want.DetectedBy {
		if got.DetectedBy[i] != want.DetectedBy[i] {
			t.Fatalf("fault %d: DetectedBy = %d, want %d", i, got.DetectedBy[i], want.DetectedBy[i])
		}
	}
}

func compareSigs(t *testing.T, got, want []*fault.Signature) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("signature count %d, want %d", len(got), len(want))
	}
	for fi := range want {
		for po := range want[fi].Bits {
			for w := range want[fi].Bits[po] {
				if got[fi].Bits[po][w] != want[fi].Bits[po][w] {
					t.Fatalf("signature (fault %d, po %d, word %d): %#x, want %#x",
						fi, po, w, got[fi].Bits[po][w], want[fi].Bits[po][w])
				}
			}
		}
	}
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// ---------------------------------------------------------------------------
// Bit-identity grids: the acceptance oracle. Coordinator results must equal
// the serial engine exactly for any worker count and shard size.

func TestClusterDetectBitIdentical(t *testing.T) {
	nets := []struct {
		name string
		n    *circuit.Netlist
	}{
		{"rand", circuit.Random(8, 120, 3)},
		{"adder", circuit.RippleAdder(4)},
	}
	combos := []struct {
		workers, shardFaults, words int
	}{
		{1, 1, 1},
		{1, 64, 8},
		{2, 7, 2},
		{2, 1 << 20, 8}, // single shard
		{4, 1, 4},
		{4, 16, 1},
	}
	for _, tc := range nets {
		faults := fault.Universe(tc.n)
		p := testPatterns(tc.n, 200, 11)
		want := serialDetect(t, tc.n, p, faults)
		for _, cb := range combos {
			t.Run(tc.name, func(t *testing.T) {
				c, lb := startCoordinator(t, Config{ShardFaults: cb.shardFaults})
				for i := 0; i < cb.workers; i++ {
					startWorker(t, lb, "w")
				}
				got, err := c.Detect(testCtx(t), tc.n, p, faults, cb.words)
				if err != nil {
					t.Fatalf("workers=%d shard=%d words=%d: %v", cb.workers, cb.shardFaults, cb.words, err)
				}
				compareDetect(t, got, want)
			})
		}
	}
}

func TestClusterDictionaryBitIdentical(t *testing.T) {
	nets := []struct {
		name string
		n    *circuit.Netlist
	}{
		{"rand", circuit.Random(8, 80, 5)},
		{"parity", circuit.GatedParity(3, 3, 2)},
	}
	combos := []struct {
		workers, shardWords, words int
	}{
		{1, 1, 1},
		{2, 2, 1},
		{2, 1, 2}, // rounds up to one W-block
		{4, 2, 4},
		{2, 1 << 20, 8}, // single shard
		{4, 3, 2},       // rounds up to 4 words
	}
	for _, tc := range nets {
		faults := fault.Universe(tc.n)
		p := testPatterns(tc.n, 500, 13) // 8 words: multiple shards at small widths
		sim, err := fault.NewSimulator(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Dictionary(p, faults)
		for _, cb := range combos {
			t.Run(tc.name, func(t *testing.T) {
				c, lb := startCoordinator(t, Config{ShardWords: cb.shardWords})
				for i := 0; i < cb.workers; i++ {
					startWorker(t, lb, "w")
				}
				got, err := c.Dictionary(testCtx(t), tc.n, p, faults, cb.words)
				if err != nil {
					t.Fatalf("workers=%d shard=%d words=%d: %v", cb.workers, cb.shardWords, cb.words, err)
				}
				compareSigs(t, got, want)
			})
		}
	}
}

// TestClusterSequentialJobs pins connection reuse across jobs: the same
// worker pool serves detect, dictionary, then detect again, each against its
// own serial oracle.
func TestClusterSequentialJobs(t *testing.T) {
	n := circuit.Random(7, 90, 17)
	faults := fault.Universe(n)
	c, lb := startCoordinator(t, Config{ShardFaults: 32, ShardWords: 2})
	startWorker(t, lb, "a")
	startWorker(t, lb, "b")

	p1 := testPatterns(n, 130, 1)
	got1, err := c.Detect(testCtx(t), n, p1, faults, 2)
	if err != nil {
		t.Fatal(err)
	}
	compareDetect(t, got1, serialDetect(t, n, p1, faults))

	p2 := testPatterns(n, 200, 2)
	sim, err := fault.NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	gotD, err := c.Dictionary(testCtx(t), n, p2, faults, 1)
	if err != nil {
		t.Fatal(err)
	}
	compareSigs(t, gotD, sim.Dictionary(p2, faults))

	p3 := testPatterns(n, 70, 3)
	got3, err := c.Detect(testCtx(t), n, p3, faults, 8)
	if err != nil {
		t.Fatal(err)
	}
	compareDetect(t, got3, serialDetect(t, n, p3, faults))

	if st := c.Stats(); st.WorkersJoined < 2 {
		t.Errorf("WorkersJoined = %d, want >= 2", st.WorkersJoined)
	}
}

// shardSignalConn closes its channel the first time a FrameShard header
// passes through Read — the hook the kill test uses to cancel a worker that
// is provably mid-shard.
type shardSignalConn struct {
	net.Conn
	once sync.Once
	ch   chan struct{}
}

func (c *shardSignalConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n >= 6 && string(b[:4]) == wireMagic && FrameType(b[5]) == FrameShard {
		c.once.Do(func() { close(c.ch) })
	}
	return n, err
}

// TestClusterWorkerKilledMidJob kills a worker right after it accepts its
// first shard. The survivor absorbs the re-dispatched work and the merged
// result stays bit-identical to the serial oracle.
func TestClusterWorkerKilledMidJob(t *testing.T) {
	n := circuit.Random(8, 150, 9)
	faults := fault.Universe(n)
	p := testPatterns(n, 300, 21)
	want := serialDetect(t, n, p, faults)

	c, lb := startCoordinator(t, Config{ShardFaults: 4, Deadline: 500 * time.Millisecond})
	gotShard := make(chan struct{})
	victimDial := func() (net.Conn, error) {
		conn, err := lb.Dial()
		if err != nil {
			return nil, err
		}
		return &shardSignalConn{Conn: conn, ch: gotShard}, nil
	}
	cancelVictim := startWorkerDial(t, victimDial, "victim")
	startWorker(t, lb, "survivor")
	// Both workers must be connected before the job starts; otherwise, on
	// a loaded machine, the victim can finish every shard before the
	// survivor dials in.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().WorkersJoined < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("workers not joined: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		<-gotShard
		cancelVictim()
	}()

	got, err := c.Detect(testCtx(t), n, p, faults, 4)
	if err != nil {
		t.Fatal(err)
	}
	compareDetect(t, got, want)
	st := c.Stats()
	if st.WorkersJoined < 2 {
		t.Errorf("WorkersJoined = %d, want >= 2", st.WorkersJoined)
	}
	t.Logf("stats after kill: %+v", st)
}

// rawConn speaks the wire protocol by hand from the test's main goroutine —
// the controllable "worker" the straggler and setup-rejection tests need.
type rawConn struct {
	t *testing.T
	c net.Conn
}

func dialRaw(t *testing.T, lb *Loopback, id string) *rawConn {
	t.Helper()
	conn, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := &rawConn{t: t, c: conn}
	r.write(FrameHello, (&helloMsg{Proto: WireVersion, ID: id}).encode())
	return r
}

func (r *rawConn) write(ft FrameType, payload []byte) {
	r.t.Helper()
	r.c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := WriteFrame(r.c, ft, payload); err != nil {
		r.t.Fatalf("raw write %v: %v", ft, err)
	}
}

func (r *rawConn) read() (FrameType, []byte) {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	ft, payload, err := ReadFrame(r.c, 0)
	if err != nil {
		r.t.Fatalf("raw read: %v", err)
	}
	return ft, payload
}

// TestClusterStragglerRedispatchAndDuplicateDiscard drives the first-result-
// wins path end to end: a hand-rolled worker takes the job's only shard and
// stalls; the deadline re-dispatches it to a real worker, whose result
// completes the job; then the straggler's late (identical) result arrives
// and is discarded as a duplicate, leaving the merge untouched.
func TestClusterStragglerRedispatchAndDuplicateDiscard(t *testing.T) {
	n := circuit.RippleAdder(2)
	faults := fault.Universe(n)
	p := testPatterns(n, 70, 31)
	want := serialDetect(t, n, p, faults)

	c, lb := startCoordinator(t, Config{
		ShardFaults:    len(faults), // one shard
		Deadline:       50 * time.Millisecond,
		SessionTimeout: 20 * time.Second, // straggler session must outlive the test
	})
	stall := dialRaw(t, lb, "straggler")

	type detectOut struct {
		res *fault.Result
		err error
	}
	out := make(chan detectOut, 1)
	go func() {
		res, err := c.Detect(testCtx(t), n, p, faults, 1)
		out <- detectOut{res, err}
	}()

	if ft, _ := stall.read(); ft != FrameSetup {
		t.Fatalf("straggler got %v, want setup", ft)
	}
	ft, payload := stall.read()
	if ft != FrameShard {
		t.Fatalf("straggler got %v, want shard", ft)
	}
	sm, err := decodeShard(payload)
	if err != nil {
		t.Fatal(err)
	}

	// The straggler now holds the only shard. The deadline must re-dispatch
	// it to this freshly joined worker for the job to complete at all.
	startWorker(t, lb, "rescuer")
	got := <-out
	if got.err != nil {
		t.Fatal(got.err)
	}
	compareDetect(t, got.res, want)

	// Late delivery of the straggler's (bit-identical) result: recompute it
	// locally and send. The coordinator must discard it as a duplicate and
	// answer Done rather than corrupting or re-counting the merge.
	sim, err := fault.NewSimulatorWords(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard := faults[sm.Lo:sm.Hi]
	detBy := make([]int, len(shard))
	sim.RunInto(p, shard, detBy, nil)
	res := &resultMsg{JobID: sm.JobID, Shard: sm.Shard, Kind: KindDetect, Lo: sm.Lo, Hi: sm.Hi, DetBy: make([]int32, len(shard))}
	for i, v := range detBy {
		res.DetBy[i] = int32(v)
	}
	stall.write(FrameResult, res.encode())
	if ft, _ := stall.read(); ft != FrameDone {
		t.Fatalf("straggler got %v after late result, want done", ft)
	}

	st := c.Stats()
	if st.Redispatches < 1 {
		t.Errorf("Redispatches = %d, want >= 1", st.Redispatches)
	}
	if st.Duplicates < 1 {
		t.Errorf("Duplicates = %d, want >= 1", st.Duplicates)
	}
}

// TestClusterSetupRejectionFailsJob pins the fail-fast path for
// deterministic job rejection: a worker that refuses the setup frame fails
// the whole job with a typed error instead of triggering endless
// re-dispatch.
func TestClusterSetupRejectionFailsJob(t *testing.T) {
	n := circuit.RippleAdder(2)
	faults := fault.Universe(n)
	p := testPatterns(n, 70, 41)

	c, lb := startCoordinator(t, Config{})
	raw := dialRaw(t, lb, "refusenik")

	out := make(chan error, 1)
	go func() {
		_, err := c.Detect(testCtx(t), n, p, faults, 1)
		out <- err
	}()
	ft, payload := raw.read()
	if ft != FrameSetup {
		t.Fatalf("got %v, want setup", ft)
	}
	m, err := decodeSetup(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Consume the shard request first: the protocol alternates strictly, so
	// the rejection rides the response slot (see worker.session).
	if ft, _ := raw.read(); ft != FrameShard {
		t.Fatalf("got %v, want shard", ft)
	}
	raw.write(FrameError, (&errorMsg{JobID: m.JobID, Shard: errorShardSetup, Msg: "synthetic rejection"}).encode())
	if err := <-out; !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("Detect err = %v, want ErrWorkerFailed", err)
	}
}

// TestClusterNoWorkersHonorsContext pins that a job with no workers blocks
// until its context expires — a clean typed return, not a hang.
func TestClusterNoWorkersHonorsContext(t *testing.T) {
	n := circuit.RippleAdder(2)
	faults := fault.Universe(n)
	p := testPatterns(n, 70, 51)
	c, _ := startCoordinator(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := c.Detect(ctx, n, p, faults, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestClusterServeAfterClose pins that a listener handed to a closed
// coordinator is closed, not leaked: Serve returns ErrClosed and a worker
// dialing the loopback gets ErrLoopbackClosed instead of blocking forever.
func TestClusterServeAfterClose(t *testing.T) {
	c := New(Config{})
	c.Close()
	lb := NewLoopback()
	if err := c.Serve(lb); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Close: err = %v, want ErrClosed", err)
	}
	dialed := make(chan error, 1)
	go func() {
		conn, err := lb.Dial()
		if conn != nil {
			conn.Close()
		}
		dialed <- err
	}()
	select {
	case err := <-dialed:
		if !errors.Is(err, ErrLoopbackClosed) {
			t.Fatalf("Dial after Serve-on-closed: err = %v, want ErrLoopbackClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial blocked: the listener passed to a closed coordinator leaked")
	}
}

// TestClusterEmptyJobShortCircuits pins the degenerate inputs: zero faults
// (detect) and zero patterns (dictionary) complete instantly with no
// workers at all.
func TestClusterEmptyJobShortCircuits(t *testing.T) {
	n := circuit.RippleAdder(2)
	c, _ := startCoordinator(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := c.Detect(ctx, n, testPatterns(n, 70, 61), nil, 1)
	if err != nil || res.Total != 0 || res.Detected != 0 {
		t.Fatalf("empty detect: %+v, %v", res, err)
	}
	sigs, err := c.Dictionary(ctx, n, logic.NewPatternSet(len(n.PIs), 0), fault.Universe(n), 1)
	if err != nil || len(sigs) != len(fault.Universe(n)) {
		t.Fatalf("empty dictionary: %d sigs, %v", len(sigs), err)
	}
}

// TestClusterRejectsMismatchedJob pins coordinator-side validation: pattern
// width and fault indices are checked before anything hits the wire.
func TestClusterRejectsMismatchedJob(t *testing.T) {
	n := circuit.RippleAdder(2)
	c, _ := startCoordinator(t, Config{})
	ctx := testCtx(t)
	if _, err := c.Detect(ctx, n, logic.NewPatternSet(len(n.PIs)+1, 8), fault.Universe(n), 1); err == nil {
		t.Error("mismatched pattern width accepted")
	}
	bad := []fault.Fault{{Gate: len(n.Gates) + 5, Pin: -1, SA: 0}}
	if _, err := c.Detect(ctx, n, testPatterns(n, 8, 1), bad, 1); err == nil {
		t.Error("out-of-range fault accepted")
	}
}
