package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/circuit"
	"repro/internal/fault"
)

// ---------------------------------------------------------------------------
// Flaky-wire tests, built on the internal/chaos injectors: per-connection
// write schedules (drop / corrupt / truncate) applied by chaos.Dialer on
// the worker side and chaos.WrapListener on the coordinator side. Because
// our frames are written with a single Write call, write index == frame
// index, which makes the schedules deterministic at the protocol level.

// logRecorder captures coordinator log lines so tests can pin the typed
// error classification that reached the failure handler.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (r *logRecorder) logf(format string, args ...any) {
	r.mu.Lock()
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *logRecorder) contains(sub string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// flakyJob is the shared fixture: a small single-shard detect job plus its
// serial oracle.
func flakyJob(t *testing.T) (*circuit.Netlist, []fault.Fault, *fault.Result, func(*Coordinator) *fault.Result) {
	t.Helper()
	n := circuit.Random(6, 60, 7)
	faults := fault.Universe(n)
	p := testPatterns(n, 130, 71)
	want := serialDetect(t, n, p, faults)
	run := func(c *Coordinator) *fault.Result {
		got, err := c.Detect(testCtx(t), n, p, faults, 2)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	return n, faults, want, run
}

// Every flaky test pins the same contract: the failure ends in re-dispatch
// (WorkersLost counts the dropped session) or a typed error in the log —
// never a hang (testCtx bounds the run) and never a corrupt merge
// (compareDetect against the serial oracle).

// TestFlakyDroppedResultRecovers: the worker's first result frame vanishes
// silently. The coordinator's session timeout reclaims the shard, the
// worker reconnects clean, and the job still matches the oracle.
func TestFlakyDroppedResultRecovers(t *testing.T) {
	_, faults, want, run := flakyJob(t)
	rec := &logRecorder{}
	c, lb := startCoordinator(t, Config{
		ShardFaults:    len(faults),
		Deadline:       100 * time.Millisecond,
		SessionTimeout: 300 * time.Millisecond,
		Logf:           rec.logf,
	})
	// Connection 1: hello passes, the result frame is swallowed.
	d := chaos.NewDialer(lb.Dial, chaos.Plan(chaos.Pass, chaos.Drop))
	startWorkerDial(t, d.Dial, "droppy")
	compareDetect(t, run(c), want)
	if st := c.Stats(); st.WorkersLost < 1 {
		t.Errorf("WorkersLost = %d, want >= 1 (timed-out session)", st.WorkersLost)
	}
}

// TestFlakyCorruptedResultRecovers: a flipped payload bit must surface as
// wire.ErrPayloadHash at the coordinator (never a garbage merge), drop the
// session, and re-dispatch.
func TestFlakyCorruptedResultRecovers(t *testing.T) {
	_, faults, want, run := flakyJob(t)
	rec := &logRecorder{}
	c, lb := startCoordinator(t, Config{
		ShardFaults: len(faults),
		Deadline:    200 * time.Millisecond,
		Logf:        rec.logf,
	})
	d := chaos.NewDialer(lb.Dial, chaos.Plan(chaos.Pass, chaos.Corrupt))
	startWorkerDial(t, d.Dial, "bitrot")
	compareDetect(t, run(c), want)
	if !rec.contains("payload hash") {
		t.Errorf("log does not pin wire.ErrPayloadHash; lines: %v", rec.lines)
	}
	if st := c.Stats(); st.WorkersLost < 1 {
		t.Errorf("WorkersLost = %d, want >= 1", st.WorkersLost)
	}
}

// TestFlakyTruncatedResultRecovers: a mid-frame connection loss must
// surface as wire.ErrTruncated and re-dispatch.
func TestFlakyTruncatedResultRecovers(t *testing.T) {
	_, faults, want, run := flakyJob(t)
	rec := &logRecorder{}
	c, lb := startCoordinator(t, Config{
		ShardFaults: len(faults),
		Deadline:    200 * time.Millisecond,
		Logf:        rec.logf,
	})
	d := chaos.NewDialer(lb.Dial, chaos.Plan(chaos.Pass, chaos.Truncate))
	startWorkerDial(t, d.Dial, "chopper")
	compareDetect(t, run(c), want)
	if !rec.contains("truncated") {
		t.Errorf("log does not pin wire.ErrTruncated; lines: %v", rec.lines)
	}
	if st := c.Stats(); st.WorkersLost < 1 {
		t.Errorf("WorkersLost = %d, want >= 1", st.WorkersLost)
	}
}

// TestFlakyCoordinatorWritesRecover: sabotage in the other direction — the
// coordinator's shard frame is corrupted in flight. The worker rejects it
// at the frame layer, the session drops, and reconnect + re-dispatch still
// converge on the oracle.
func TestFlakyCoordinatorWritesRecover(t *testing.T) {
	_, faults, want, run := flakyJob(t)
	lb := NewLoopback()
	// Accepted connection 1: setup passes, the first shard frame is
	// corrupted. Later connections are clean.
	fl := chaos.WrapListener(lb, chaos.Plan(chaos.Pass, chaos.Corrupt))
	c := startCoordinatorOn(t, Config{
		ShardFaults: len(faults),
		Deadline:    200 * time.Millisecond,
	}, fl)
	startWorker(t, lb, "w")
	compareDetect(t, run(c), want)
	if st := c.Stats(); st.WorkersLost < 1 {
		t.Errorf("WorkersLost = %d, want >= 1", st.WorkersLost)
	}
}

// TestFlakyRandomScheduleConverges hammers a multi-shard job through two
// workers whose first connections fail randomly (seeded) in both
// directions, then come back clean. Whatever the schedule breaks, the
// result must still be bit-identical — the global contract that every
// failure path ends in re-dispatch, not corruption.
func TestFlakyRandomScheduleConverges(t *testing.T) {
	n := circuit.Random(8, 120, 23)
	faults := fault.Universe(n)
	p := testPatterns(n, 260, 81)
	want := serialDetect(t, n, p, faults)

	w := chaos.Weights{Pass: 2, Drop: 1, Corrupt: 1}
	lb := NewLoopback()
	fl := chaos.WrapListener(lb,
		chaos.RandomSchedule(chaos.Split(99, 0), 4, w),
		chaos.RandomSchedule(chaos.Split(99, 1), 4, w))
	c := startCoordinatorOn(t, Config{
		ShardFaults:    16,
		Deadline:       100 * time.Millisecond,
		SessionTimeout: 300 * time.Millisecond,
	}, fl)
	for i := 0; i < 2; i++ {
		d := chaos.NewSeededDialer(lb.Dial, chaos.Split(99, uint64(2+i)), 2, 5, w)
		startWorkerDial(t, d.Dial, fmt.Sprintf("flaky-%d", i))
	}
	got, err := c.Detect(testCtx(t), n, p, faults, 4)
	if err != nil {
		t.Fatal(err)
	}
	compareDetect(t, got, want)
	t.Logf("converged with stats %+v", c.Stats())
}

// ---------------------------------------------------------------------------
// Reconnect jitter.

// TestWorkerBackoffJitterDeterministic pins the jittered reconnect
// schedule: a fixed seed yields a fixed delay sequence, every delay stays
// inside (backoff/2, backoff], and two workers with different IDs draw
// different sequences — the anti-thundering-herd property.
func TestWorkerBackoffJitterDeterministic(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		rng := chaos.NewRand(seed)
		var out []time.Duration
		backoff := 50 * time.Millisecond
		for i := 0; i < 8; i++ {
			out = append(out, jitterBackoff(rng, backoff))
			backoff = min(backoff*2, 2*time.Second)
		}
		return out
	}
	a := (&Worker{ID: "w1"}).seed()
	b := (&Worker{ID: "w2"}).seed()
	if a == b {
		t.Fatal("distinct IDs derived the same jitter seed")
	}
	if (&Worker{ID: "w1", Seed: 7}).seed() != 7 {
		t.Fatal("explicit seed not honored")
	}

	s1, s2 := draw(a), draw(a)
	backoff := 50 * time.Millisecond
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("attempt %d: schedule not deterministic (%v vs %v)", i, s1[i], s2[i])
		}
		if s1[i] <= backoff/2 || s1[i] > backoff {
			t.Fatalf("attempt %d: delay %v outside (%v, %v]", i, s1[i], backoff/2, backoff)
		}
		backoff = min(backoff*2, 2*time.Second)
	}
	sb := draw(b)
	same := 0
	for i := range s1 {
		if s1[i] == sb[i] {
			same++
		}
	}
	if same == len(s1) {
		t.Fatal("two workers share an identical jitter schedule: thundering herd")
	}

	// Degenerate inputs never panic and never exceed the envelope.
	rng := chaos.NewRand(1)
	for _, d := range []time.Duration{0, 1, 2, time.Nanosecond} {
		if got := jitterBackoff(rng, d); got > d || got < 0 {
			t.Fatalf("jitter(%v) = %v", d, got)
		}
	}
}
