// Package chaos provides deterministic fault injection for robustness
// tests and CI chaos jobs. Everything is seeded and replayable: the same
// seed produces the same schedule of failures on every run, so a chaos
// test that fails once fails every time, with the exact failure sequence
// recoverable from the seed alone.
//
// Three injection surfaces are covered:
//
//   - Transport: Conn wraps a net.Conn and sabotages writes on a
//     per-connection Schedule of drop/corrupt/truncate/delay events;
//     Dialer and Listener apply per-connection schedules to the client
//     and server side of a transport (internal/cluster's flaky-wire tests
//     are built on these).
//   - Storage: VolatileFile models a file on a machine that can lose
//     power — writes are volatile until Sync commits them, and Crash
//     discards everything unsynced, which is exactly the durability model
//     a write-ahead journal must survive.
//   - Process: named coordinator crash points (CrashAfterDispatch, ...)
//     plus CrashPlan, a counting trigger that "kills" the process at the
//     N-th hit of a chosen point. The cluster coordinator calls its
//     Config.CrashHook at each point; a CLI hook can os.Exit for a real
//     process death, an in-process test hook fails the job and freezes
//     the journal instead.
package chaos

import (
	"fmt"
	"sync"
	"time"
)

// ---------------------------------------------------------------------------
// Seeded randomness. SplitMix64 matches the repository's seed-splitting
// convention (internal/parallel.SplitSeed): tiny state, full 64-bit
// avalanche, and statistically independent streams from split seeds.

// Rand is a SplitMix64 generator. The zero value is a valid (seed 0)
// stream; distinct seeds give independent streams.
type Rand struct{ state uint64 }

// NewRand returns a generator for the given seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 advances the stream and returns the next 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("chaos: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// ---------------------------------------------------------------------------
// Event schedules.

// Op is one transport sabotage action.
type Op uint8

// Transport sabotage operations applied to writes.
const (
	Pass     Op = iota // forward the write unchanged
	Drop               // swallow the write, report success
	Corrupt            // flip one payload bit, then forward
	Truncate           // forward half the bytes, then kill the connection
	Delay              // sleep, then forward unchanged
)

func (o Op) String() string {
	switch o {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "truncate"
	case Delay:
		return "delay"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Event is one scheduled action. Sleep is only used by Delay ops.
type Event struct {
	Op    Op
	Sleep time.Duration
}

// Schedule is the per-connection event plan: the i-th write gets the i-th
// event; writes past the end of the schedule pass clean, so every
// schedule eventually lets the protocol converge.
type Schedule []Event

// Weights select the relative frequency of each op in RandomSchedule. A
// zero weight disables the op; an all-zero Weights defaults to
// {Pass: 2, Drop: 1, Corrupt: 1}.
type Weights struct {
	Pass, Drop, Corrupt, Truncate, Delay int
	// Sleep is the delay applied by generated Delay events (default 1ms).
	Sleep time.Duration
}

// RandomSchedule builds a deterministic n-event schedule from a seed and
// op weights. The same (seed, n, weights) always yields the same schedule.
func RandomSchedule(seed uint64, n int, w Weights) Schedule {
	total := w.Pass + w.Drop + w.Corrupt + w.Truncate + w.Delay
	if total <= 0 {
		w = Weights{Pass: 2, Drop: 1, Corrupt: 1}
		total = 4
	}
	sleep := w.Sleep
	if sleep <= 0 {
		sleep = time.Millisecond
	}
	r := NewRand(seed)
	s := make(Schedule, n)
	for i := range s {
		pick := r.Intn(total)
		switch {
		case pick < w.Pass:
			s[i] = Event{Op: Pass}
		case pick < w.Pass+w.Drop:
			s[i] = Event{Op: Drop}
		case pick < w.Pass+w.Drop+w.Corrupt:
			s[i] = Event{Op: Corrupt}
		case pick < w.Pass+w.Drop+w.Corrupt+w.Truncate:
			s[i] = Event{Op: Truncate}
		default:
			s[i] = Event{Op: Delay, Sleep: sleep}
		}
	}
	return s
}

// Plan builds a schedule from bare ops (no delays) — the concise form for
// hand-written failure sequences in tests.
func Plan(ops ...Op) Schedule {
	s := make(Schedule, len(ops))
	for i, op := range ops {
		s[i] = Event{Op: op}
	}
	return s
}

// ---------------------------------------------------------------------------
// Coordinator crash points.

// Named coordinator crash points. The cluster coordinator calls its
// configured CrashHook with one of these at each interesting boundary of
// the checkpoint protocol:
//
//   - CrashAfterDispatch: a shard was just written to a worker; nothing
//     about it is journaled. Resume must re-dispatch it.
//   - CrashAfterResultBeforeSync: a verified shard result was appended to
//     the journal but not yet synced — the record may be lost. Resume
//     must tolerate the missing (or torn) tail and recompute the shard.
//   - CrashAfterJournalSync: the record is durable but was never merged
//     in memory. Resume must recover the shard from the journal alone.
const (
	CrashAfterDispatch         = "after-dispatch"
	CrashAfterResultBeforeSync = "after-result-before-journal-sync"
	CrashAfterJournalSync      = "after-journal-sync"
)

// CrashPoints lists every named crash point (CLI flag validation).
var CrashPoints = []string{
	CrashAfterDispatch,
	CrashAfterResultBeforeSync,
	CrashAfterJournalSync,
}

// ValidCrashPoint reports whether name is a known crash point.
func ValidCrashPoint(name string) bool {
	for _, p := range CrashPoints {
		if p == name {
			return true
		}
	}
	return false
}

// CrashPlan fires at the After-th hit of Point (1-based): a deterministic
// "kill the coordinator exactly here" trigger. Hits of other points are
// counted separately and never fire. Safe for concurrent use.
type CrashPlan struct {
	Point string
	After int

	mu    sync.Mutex
	hits  int
	fired bool
}

// Hook returns the crash-hook function to install as the coordinator's
// Config.CrashHook. It returns true exactly once, at the After-th hit of
// the plan's point.
func (p *CrashPlan) Hook() func(point string) bool {
	return func(point string) bool {
		if point != p.Point {
			return false
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.fired {
			return true // already "dead": a real crash never comes back
		}
		p.hits++
		if p.hits >= p.After {
			p.fired = true
		}
		return p.fired
	}
}

// Fired reports whether the plan's crash has triggered.
func (p *CrashPlan) Fired() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// Hits returns how many times the plan's point has been reached.
func (p *CrashPlan) Hits() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}
