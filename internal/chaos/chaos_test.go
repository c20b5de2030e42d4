package chaos

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: %#x != %#x", i, av, bv)
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for different seeds collide too often: %d/100", same)
	}
}

func TestRandomScheduleDeterministicAndWeighted(t *testing.T) {
	s1 := RandomSchedule(99, 64, Weights{})
	s2 := RandomSchedule(99, 64, Weights{})
	if len(s1) != 64 {
		t.Fatalf("len = %d", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("schedule not deterministic at %d", i)
		}
	}
	// Zero-weight ops must never appear; default weights exclude
	// Truncate and Delay.
	for i, ev := range s1 {
		if ev.Op == Truncate || ev.Op == Delay {
			t.Fatalf("event %d has zero-weight op %v", i, ev.Op)
		}
	}
	// An only-Drop weighting yields only drops.
	for i, ev := range RandomSchedule(5, 32, Weights{Drop: 1}) {
		if ev.Op != Drop {
			t.Fatalf("event %d: want drop, got %v", i, ev.Op)
		}
	}
	// Delay events carry the configured sleep.
	for i, ev := range RandomSchedule(5, 8, Weights{Delay: 1, Sleep: 3 * time.Millisecond}) {
		if ev.Op != Delay || ev.Sleep != 3*time.Millisecond {
			t.Fatalf("event %d: got %+v", i, ev)
		}
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		Pass: "pass", Drop: "drop", Corrupt: "corrupt",
		Truncate: "truncate", Delay: "delay", Op(99): "op(99)",
	} {
		if got := op.String(); got != want {
			t.Fatalf("Op(%d).String() = %q, want %q", uint8(op), got, want)
		}
	}
}

// pipeRead collects n bytes (or until error) from the reader side.
func pipeRead(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	got := 0
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	for got < n {
		k, err := c.Read(buf[got:])
		got += k
		if err != nil {
			return buf[:got]
		}
	}
	return buf[:got]
}

func TestConnOps(t *testing.T) {
	msg := []byte("abcdefgh")

	t.Run("pass", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		w := WrapConn(a, Plan(Pass))
		go w.Write(msg)
		if got := pipeRead(t, b, len(msg)); !bytes.Equal(got, msg) {
			t.Fatalf("got %q", got)
		}
		if w.Writes() != 1 {
			t.Fatalf("writes = %d", w.Writes())
		}
	})

	t.Run("drop", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		w := WrapConn(a, Plan(Drop, Pass))
		if n, err := w.Write(msg); n != len(msg) || err != nil {
			t.Fatalf("drop write: n=%d err=%v", n, err)
		}
		// Second write passes; reader sees only it.
		go w.Write([]byte("XY"))
		if got := pipeRead(t, b, 2); !bytes.Equal(got, []byte("XY")) {
			t.Fatalf("got %q", got)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		w := WrapConn(a, Plan(Corrupt))
		go w.Write(msg)
		got := pipeRead(t, b, len(msg))
		if bytes.Equal(got, msg) {
			t.Fatal("corrupt write arrived unmodified")
		}
		want := append([]byte(nil), msg...)
		want[len(want)-1] ^= 0x40
		if !bytes.Equal(got, want) {
			t.Fatalf("got %q, want %q", got, want)
		}
		// The original buffer must not be mutated.
		if !bytes.Equal(msg, []byte("abcdefgh")) {
			t.Fatal("caller's buffer was mutated")
		}
	})

	t.Run("truncate", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		errc := make(chan error, 1)
		w := WrapConn(a, Plan(Truncate))
		go func() {
			_, err := w.Write(msg)
			errc <- err
		}()
		got := pipeRead(t, b, len(msg))
		if len(got) != len(msg)/2 {
			t.Fatalf("reader saw %d bytes, want %d", len(got), len(msg)/2)
		}
		if err := <-errc; !errors.Is(err, ErrTruncatedWrite) {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("past-schedule passes clean", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		w := WrapConn(a, Plan(Drop))
		w.Write(msg) // dropped
		go w.Write(msg)
		if got := pipeRead(t, b, len(msg)); !bytes.Equal(got, msg) {
			t.Fatalf("got %q", got)
		}
	})
}

func TestDialerPerConnSchedules(t *testing.T) {
	// Dialer applies schedule i to connection i and leaves later
	// connections clean.
	var dialed int
	dial := func() (net.Conn, error) {
		dialed++
		a, _ := net.Pipe()
		return a, nil
	}
	d := NewDialer(dial, Plan(Drop), nil)
	c0, err := d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c0.(*Conn); !ok {
		t.Fatalf("conn 0 not wrapped: %T", c0)
	}
	c1, _ := d.Dial()
	if _, ok := c1.(*Conn); !ok {
		t.Fatalf("conn 1 not wrapped (empty schedule still wraps): %T", c1)
	}
	c2, _ := d.Dial()
	if _, ok := c2.(*Conn); ok {
		t.Fatal("conn 2 past schedule list should be raw")
	}
	if d.Conns() != 3 || dialed != 3 {
		t.Fatalf("conns=%d dialed=%d", d.Conns(), dialed)
	}
}

func TestSeededDialerDeterministic(t *testing.T) {
	mk := func() *Dialer {
		return NewSeededDialer(func() (net.Conn, error) {
			a, _ := net.Pipe()
			return a, nil
		}, 11, 3, 16, Weights{Drop: 1, Pass: 1})
	}
	d1, d2 := mk(), mk()
	for i := 0; i < 3; i++ {
		c1, _ := d1.Dial()
		c2, _ := d2.Dial()
		w1 := c1.(*Conn)
		w2 := c2.(*Conn)
		for j := range w1.sched {
			if w1.sched[j] != w2.sched[j] {
				t.Fatalf("conn %d event %d differ", i, j)
			}
		}
	}
}

func TestVolatileFile(t *testing.T) {
	var f VolatileFile
	f.Write([]byte("aaaa"))
	if len(f.Durable()) != 0 {
		t.Fatal("unsynced bytes are durable")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("bbbb"))
	got := f.Crash()
	if !bytes.Equal(got, []byte("aaaa")) {
		t.Fatalf("after crash durable = %q", got)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrDeviceCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrDeviceCrashed) {
		t.Fatalf("sync after crash: %v", err)
	}
	f.Reopen()
	f.Write([]byte("cc"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if want := []byte("aaaacc"); !bytes.Equal(f.Durable(), want) {
		t.Fatalf("after reopen durable = %q, want %q", f.Durable(), want)
	}
	if f.Syncs() != 2 {
		t.Fatalf("syncs = %d", f.Syncs())
	}
	f.Truncate(3)
	if want := []byte("aaa"); !bytes.Equal(f.Durable(), want) {
		t.Fatalf("after truncate durable = %q", f.Durable())
	}
	f.Truncate(100) // no-op past end
	if len(f.Durable()) != 3 {
		t.Fatal("truncate past end changed data")
	}
}

func TestCrashPlan(t *testing.T) {
	p := &CrashPlan{Point: CrashAfterJournalSync, After: 3}
	hook := p.Hook()
	if hook(CrashAfterDispatch) {
		t.Fatal("fired on wrong point")
	}
	if hook(CrashAfterJournalSync) || hook(CrashAfterJournalSync) {
		t.Fatal("fired early")
	}
	if !hook(CrashAfterJournalSync) {
		t.Fatal("did not fire at After-th hit")
	}
	if !p.Fired() || p.Hits() != 3 {
		t.Fatalf("fired=%v hits=%d", p.Fired(), p.Hits())
	}
	// Once dead, always dead — even on repeat hits.
	if !hook(CrashAfterJournalSync) {
		t.Fatal("revived after crash")
	}
	// Other points still don't fire.
	if hook(CrashAfterDispatch) {
		t.Fatal("wrong point fired after crash")
	}
}

func TestCrashPlanConcurrent(t *testing.T) {
	p := &CrashPlan{Point: CrashAfterDispatch, After: 5}
	hook := p.Hook()
	var wg sync.WaitGroup
	fired := make(chan bool, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				fired <- hook(CrashAfterDispatch)
			}
		}()
	}
	wg.Wait()
	close(fired)
	if !p.Fired() {
		t.Fatal("never fired")
	}
}

func TestValidCrashPoint(t *testing.T) {
	for _, p := range CrashPoints {
		if !ValidCrashPoint(p) {
			t.Fatalf("%q invalid", p)
		}
	}
	if ValidCrashPoint("before-breakfast") {
		t.Fatal("unknown point accepted")
	}
}
