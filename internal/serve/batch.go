package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Batching errors surfaced to handlers.
var (
	// ErrQueueFull means the bounded submission queue was full: the server
	// sheds the request (HTTP 429) instead of queueing unbounded work.
	ErrQueueFull = errors.New("serve: batch queue full")
	// ErrBatcherClosed means the batcher is draining or drained.
	ErrBatcherClosed = errors.New("serve: batcher closed")
)

// batchItem carries one request through the queue to its waiting caller.
type batchItem[Req, Resp any] struct {
	ctx context.Context
	req Req
	out chan Resp // buffered(1): the worker's send never blocks
}

// Batcher coalesces concurrent single-item submissions into batched calls
// of fn. A batch is flushed when it reaches MaxBatch items or when the
// flush window elapses after the first item arrived — the classic
// inference micro-batching tradeoff: tiny added latency (bounded by the
// window) for much better amortization of per-call model overhead.
//
// The submission queue is bounded; Do never blocks on a full queue but
// fails fast with ErrQueueFull so callers can shed load explicitly.
type Batcher[Req, Resp any] struct {
	fn func([]Req) []Resp
	// PanicHandler, when set, converts a panic escaping fn into one response
	// that answers every item of the failed batch — the worker goroutine
	// survives and keeps batching. When nil, the panic propagates and kills
	// the process (a batch worker panic is otherwise unrecoverable). Set it
	// before the first Do.
	PanicHandler func(rec any) Resp
	maxBatch     int
	window       time.Duration
	queue        chan batchItem[Req, Resp]
	stop         chan struct{}
	done         chan struct{}
	closed       atomic.Bool

	// Counters exported through the metrics snapshot.
	batches  atomic.Int64
	items    atomic.Int64
	maxSeen  atomic.Int64
	rejected atomic.Int64
}

// NewBatcher starts a batching worker. fn receives 1..maxBatch requests
// and must return exactly one response per request, index-aligned; it runs
// on the batcher's goroutine, so its internal parallelism is its own
// business (the serving handlers fan out over internal/parallel).
func NewBatcher[Req, Resp any](maxBatch, queueCap int, window time.Duration, fn func([]Req) []Resp) *Batcher[Req, Resp] {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if queueCap < maxBatch {
		queueCap = maxBatch
	}
	if window <= 0 {
		window = time.Millisecond
	}
	b := &Batcher[Req, Resp]{
		fn:       fn,
		maxBatch: maxBatch,
		window:   window,
		queue:    make(chan batchItem[Req, Resp], queueCap),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.loop()
	return b
}

// Do submits one request and waits for its batched response. It returns
// ErrQueueFull immediately when the queue is saturated, ErrBatcherClosed
// during shutdown, or the context error if the caller's deadline expires
// first (the work item is then skipped at execution time).
func (b *Batcher[Req, Resp]) Do(ctx context.Context, req Req) (Resp, error) {
	var zero Resp
	if b.closed.Load() {
		return zero, ErrBatcherClosed
	}
	it := batchItem[Req, Resp]{ctx: ctx, req: req, out: make(chan Resp, 1)}
	select {
	case b.queue <- it:
	default:
		b.rejected.Add(1)
		return zero, ErrQueueFull
	}
	select {
	case resp := <-it.out:
		return resp, nil
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-b.done:
		// Lost the race with Close after the drain finished; the item can
		// no longer be executed.
		select {
		case resp := <-it.out:
			return resp, nil
		default:
			return zero, ErrBatcherClosed
		}
	}
}

// Close stops accepting new work, drains every queued item through fn, and
// returns once the worker has exited — the graceful-shutdown half of the
// serving lifecycle.
func (b *Batcher[Req, Resp]) Close() {
	if b.closed.CompareAndSwap(false, true) {
		close(b.stop)
	}
	<-b.done
}

func (b *Batcher[Req, Resp]) loop() {
	defer close(b.done)
	for {
		select {
		case it := <-b.queue:
			b.collect(it)
		case <-b.stop:
			b.drain()
			return
		}
	}
}

// collect gathers a batch around the first item: more items until the
// batch is full or the flush window expires.
func (b *Batcher[Req, Resp]) collect(first batchItem[Req, Resp]) {
	batch := make([]batchItem[Req, Resp], 1, b.maxBatch)
	batch[0] = first
	timer := time.NewTimer(b.window)
	defer timer.Stop()
	for len(batch) < b.maxBatch {
		select {
		case it := <-b.queue:
			batch = append(batch, it)
		case <-timer.C:
			b.run(batch)
			return
		case <-b.stop:
			b.run(batch)
			return // loop() will drain the rest
		}
	}
	b.run(batch)
}

// drain executes everything still queued at shutdown so no accepted
// request is dropped silently.
func (b *Batcher[Req, Resp]) drain() {
	for {
		batch := make([]batchItem[Req, Resp], 0, b.maxBatch)
		for len(batch) < b.maxBatch {
			select {
			case it := <-b.queue:
				batch = append(batch, it)
			default:
				goto flush
			}
		}
	flush:
		if len(batch) == 0 {
			return
		}
		b.run(batch)
	}
}

// run executes one batch: items whose caller already gave up (context
// done) are filtered out, the rest go through fn in one call.
func (b *Batcher[Req, Resp]) run(batch []batchItem[Req, Resp]) {
	live := batch[:0]
	for _, it := range batch {
		if it.ctx.Err() == nil {
			live = append(live, it)
		}
	}
	if len(live) == 0 {
		return
	}
	reqs := make([]Req, len(live))
	for i, it := range live {
		reqs[i] = it.req
	}
	resps := b.call(reqs)
	b.batches.Add(1)
	b.items.Add(int64(len(live)))
	for {
		max := b.maxSeen.Load()
		if int64(len(live)) <= max || b.maxSeen.CompareAndSwap(max, int64(len(live))) {
			break
		}
	}
	for i, it := range live {
		it.out <- resps[i]
	}
}

// call invokes fn, converting an escaping panic (or a response slice of the
// wrong length, which would corrupt the index alignment) into PanicHandler
// responses for the whole batch.
func (b *Batcher[Req, Resp]) call(reqs []Req) (resps []Resp) {
	fill := func(rec any) []Resp {
		resp := b.PanicHandler(rec)
		out := make([]Resp, len(reqs))
		for i := range out {
			out[i] = resp
		}
		return out
	}
	defer func() {
		if rec := recover(); rec != nil {
			if b.PanicHandler == nil {
				panic(rec)
			}
			resps = fill(rec)
		}
	}()
	resps = b.fn(reqs)
	if len(resps) != len(reqs) {
		if b.PanicHandler == nil {
			panic(fmt.Sprintf("serve: batch fn returned %d responses for %d requests", len(resps), len(reqs)))
		}
		resps = fill(fmt.Errorf("batch fn returned %d responses for %d requests", len(resps), len(reqs)))
	}
	return resps
}

// Stats reports lifetime batching counters (for /debug/vars).
func (b *Batcher[Req, Resp]) Stats() (batches, items, maxBatch, rejected int64) {
	return b.batches.Load(), b.items.Load(), b.maxSeen.Load(), b.rejected.Load()
}
