package chaos

import (
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/parallel"
)

// ErrTruncatedWrite is returned by Conn.Write for a Truncate event, after
// forwarding half the bytes and closing the connection.
var ErrTruncatedWrite = errors.New("chaos: truncated write")

// Conn wraps a net.Conn and sabotages its writes according to a Schedule:
// the i-th Write gets the i-th event; writes past the schedule pass
// clean. Because the cluster wire layer sends each frame in a single
// Write call, write index == frame index, which is what makes transport
// schedules deterministic at the protocol level.
//
// Reads are never sabotaged directly — a dropped or corrupted write is
// observed by the peer's reader, which keeps one schedule's effects
// attributable to one direction.
type Conn struct {
	net.Conn
	mu    sync.Mutex
	sched Schedule
	idx   int
}

// WrapConn applies a schedule to a connection's writes.
func WrapConn(c net.Conn, s Schedule) *Conn {
	return &Conn{Conn: c, sched: s}
}

func (c *Conn) next() Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := Event{Op: Pass}
	if c.idx < len(c.sched) {
		ev = c.sched[c.idx]
	}
	c.idx++
	return ev
}

// Writes reports how many writes have been attempted through the wrapper.
func (c *Conn) Writes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx
}

func (c *Conn) Write(b []byte) (int, error) {
	ev := c.next()
	switch ev.Op {
	case Drop:
		return len(b), nil // pretend success; the peer waits on nothing
	case Corrupt:
		cp := append([]byte(nil), b...)
		cp[len(cp)-1] ^= 0x40 // the last byte sits in the payload for every frame
		return c.Conn.Write(cp)
	case Truncate:
		c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		return len(b) / 2, ErrTruncatedWrite
	case Delay:
		if ev.Sleep > 0 {
			time.Sleep(ev.Sleep)
		}
	}
	return c.Conn.Write(b)
}

// Dialer applies per-connection schedules to the client side of a
// transport: the i-th dialed connection gets the i-th schedule, and
// connections past the schedule list are clean — so every dialer
// eventually converges to a healthy transport.
type Dialer struct {
	dial   func() (net.Conn, error)
	mu     sync.Mutex
	n      int
	scheds []Schedule
}

// NewDialer wraps a dial function with per-connection schedules.
func NewDialer(dial func() (net.Conn, error), scheds ...Schedule) *Dialer {
	return &Dialer{dial: dial, scheds: scheds}
}

// NewSeededDialer derives one n-event schedule per expected connection
// from a base seed (independent streams via parallel.SplitSeed), for conns
// connections; later connections are clean.
func NewSeededDialer(dial func() (net.Conn, error), seed uint64, conns, n int, w Weights) *Dialer {
	scheds := make([]Schedule, conns)
	for i := range scheds {
		scheds[i] = RandomSchedule(uint64(parallel.SplitSeed(int64(seed), int64(i))), n, w)
	}
	return NewDialer(dial, scheds...)
}

// Dial opens the next connection, sabotaged per its schedule.
func (d *Dialer) Dial() (net.Conn, error) {
	c, err := d.dial()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	i := d.n
	d.n++
	d.mu.Unlock()
	if i < len(d.scheds) {
		return WrapConn(c, d.scheds[i]), nil
	}
	return c, nil
}

// Conns reports how many connections have been dialed.
func (d *Dialer) Conns() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Listener is the server-side twin: it sabotages writes on the i-th
// accepted connection per the i-th schedule; later connections are clean.
type Listener struct {
	net.Listener
	mu     sync.Mutex
	n      int
	scheds []Schedule
}

// WrapListener applies per-connection schedules to accepted connections.
func WrapListener(l net.Listener, scheds ...Schedule) *Listener {
	return &Listener{Listener: l, scheds: scheds}
}

// Accept returns the next connection, sabotaged per its schedule.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.n
	l.n++
	l.mu.Unlock()
	if i < len(l.scheds) {
		return WrapConn(c, l.scheds[i]), nil
	}
	return c, nil
}
