package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/wire"
)

// Config tunes a Coordinator. The zero value selects sane defaults.
type Config struct {
	// ShardFaults is the detect-job shard size in faults (default 256).
	ShardFaults int
	// Deadline is the per-shard straggler deadline: a dispatched shard not
	// answered within it is re-dispatched to the next free worker. The
	// original dispatch stays outstanding — the first result wins and
	// duplicates are discarded. Default 10s.
	Deadline time.Duration
	// SessionTimeout caps how long a session waits on one worker frame
	// before declaring the worker dead and dropping the connection
	// (default 4×Deadline). Slow workers lose their connection but their
	// shard has long since been re-dispatched; on reconnect they rejoin.
	SessionTimeout time.Duration
	// CrashHook, when non-nil, is consulted at each named crash point of
	// the checkpoint protocol (internal/chaos.CrashPoints). Returning true
	// simulates the coordinator process dying right there: the journal
	// freezes with exactly the bytes a dead process would leave and the
	// active job fails with ErrCrashed. A CLI hook may os.Exit instead for
	// a real process death. nil (production) never crashes.
	CrashHook func(point string) bool
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ShardFaults <= 0 {
		out.ShardFaults = 256
	}
	if out.Deadline <= 0 {
		out.Deadline = 10 * time.Second
	}
	if out.SessionTimeout <= 0 {
		out.SessionTimeout = 4 * out.Deadline
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Stats counts coordinator events since construction; useful for
// observability and for tests pinning the failure paths (a re-dispatch or a
// discarded duplicate is invisible in the bit-identical result — only the
// counters prove the path ran).
type Stats struct {
	WorkersJoined    int64
	WorkersLost      int64
	ShardsDispatched int64
	Redispatches     int64 // straggler deadline re-dispatches
	Duplicates       int64 // results for already-completed shards, discarded
	ShardFailures    int64 // worker-reported shard errors (re-dispatched)
	NetlistsSent     int64 // netlist frames sent to workers that did not hold the job's circuit
}

// Coordinator partitions fault-simulation jobs into shards and drives them
// to completion over any number of workers. One job runs at a time;
// concurrent Detect/Dictionary calls serialize. Workers may join and leave
// at any point during a job.
type Coordinator struct {
	cfg Config

	jobMu sync.Mutex // serializes jobs

	mu        sync.Mutex
	cond      *sync.Cond // guards+signals everything below
	job       *job       // active job, nil between jobs
	jobSeq    uint64
	closed    bool
	listeners []net.Listener
	stats     Stats
}

// shardSpec is one work unit's range: faults for detect jobs, pattern-word
// columns for dictionary jobs.
type shardSpec struct {
	lo, hi uint32
}

// JobOptions extends a job run with checkpoint/resume state.
type JobOptions struct {
	// Journal, when non-nil, receives the job header plus one synced
	// record per verified shard result, making the job resumable after a
	// coordinator crash. A journal I/O failure fails the job (a silently
	// unprotected run would betray the crash-safety contract).
	Journal *Journal
	// Resume, when non-nil, is a prior run's replay (ReadJournal): its
	// header must match this job exactly (ErrJournalMismatch otherwise),
	// its shards pre-merge and only the remainder dispatches. Combined
	// with Journal, new results append to the same journal.
	Resume *Replay
}

type job struct {
	id    uint64
	kind  JobKind
	words int
	setup []byte // encoded setup payload, shared by every session

	// The netlist frame, encoded on the first worker's request (most jobs
	// find every worker already holding the circuit and never encode it).
	net      *circuit.Netlist
	netOnce  sync.Once
	netFrame []byte
	netErr   error

	journal *Journal
	netHash [32]byte // circuit content hash (== setup NetHash)
	inHash  [32]byte // pattern + fault-list digest
	inputs  int
	npat    int
	unit    int // shard size: faults (detect) or pattern words (dictionary)

	specs    []shardSpec
	pending  []int // shard indices awaiting (re-)dispatch
	queued   []bool
	inflight map[int]time.Time // shard → last dispatch time
	failures []int             // worker-error count per shard
	done     []bool
	nDone    int

	err      error
	finished chan struct{}

	// Merge targets. Shards write disjoint regions under c.mu; a shard's
	// region is written exactly once (the done flag gates duplicates), so
	// the merge is order-independent by construction.
	detBy    []int // detect: absolute first-detection index per fault, -1 undetected
	detected int
	sigs     []*fault.Signature // dictionary
	nFaults  int
	nPOs     int
	pwords   int
}

// New returns a Coordinator with the given configuration.
func New(cfg Config) *Coordinator {
	c := &Coordinator{cfg: cfg.withDefaults()}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Serve accepts worker connections from l until the listener or the
// coordinator is closed. Call it in a goroutine; multiple listeners (e.g. a
// TCP socket plus a Loopback) may be served concurrently. The coordinator
// owns l: it is closed on Close, or right away if the coordinator is
// already closed, so a worker dialing it never waits forever.
func (c *Coordinator) Serve(l net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	c.listeners = append(c.listeners, l)
	c.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return ErrClosed
			}
			return err
		}
		go c.handle(conn)
	}
}

// Close shuts the coordinator down: listeners close, the active job (if
// any) fails with ErrClosed, and blocked sessions unwind.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	ls := c.listeners
	c.listeners = nil
	if c.job != nil {
		c.failJobLocked(c.job, ErrClosed)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	return nil
}

// Stats returns a snapshot of the event counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Detect distributes a fault-detection run (the fault.RunConcurrent
// workload) over the connected workers: the fault list splits into
// contiguous shards, each simulated remotely with per-shard dropping.
// The result is bit-identical to fault.RunSerial on the same inputs for
// any worker count, shard size and failure schedule, because a fault's
// first-detection index depends only on (circuit, patterns, fault) and
// shard merges write disjoint DetectedBy ranges.
func (c *Coordinator) Detect(ctx context.Context, n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault, words int) (*fault.Result, error) {
	return c.DetectOpt(ctx, n, p, faults, words, JobOptions{})
}

// DetectOpt is Detect with checkpoint/resume options.
func (c *Coordinator) DetectOpt(ctx context.Context, n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault, words int, opt JobOptions) (*fault.Result, error) {
	if err := validateJob(n, p, faults); err != nil {
		return nil, err
	}
	w := fault.Options{Words: words}.Lanes()
	j, err := c.newJob(KindDetect, w, n, p, faults)
	if err != nil {
		return nil, err
	}
	j.partition(c.cfg.ShardFaults, len(faults))
	j.detBy = make([]int, len(faults))
	for i := range j.detBy {
		j.detBy[i] = -1
	}
	if err := c.run(ctx, j, opt); err != nil {
		return nil, err
	}
	res := &fault.Result{Total: len(faults), Detected: j.detected, DetectedBy: j.detBy}
	if res.Total > 0 {
		res.Coverage = float64(res.Detected) / float64(res.Total)
	}
	return res, nil
}

// Dictionary distributes a full-response dictionary build (the
// fault.DictionaryConcurrent workload): each shard is one block of words
// pattern words, the unit DictionaryConcurrent shards too, and a worker
// returns the nonzero signature rows of its block for every fault
// (fault.Simulator.DictionaryBlock). Distinct shards write disjoint
// signature columns, so the merged dictionary equals Simulator.Dictionary
// word for word regardless of worker count or dispatch order.
func (c *Coordinator) Dictionary(ctx context.Context, n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault, words int) ([]*fault.Signature, error) {
	return c.DictionaryOpt(ctx, n, p, faults, words, JobOptions{})
}

// DictionaryOpt is Dictionary with checkpoint/resume options.
func (c *Coordinator) DictionaryOpt(ctx context.Context, n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault, words int, opt JobOptions) ([]*fault.Signature, error) {
	if err := validateJob(n, p, faults); err != nil {
		return nil, err
	}
	w := fault.Options{Words: words}.Lanes()
	j, err := c.newJob(KindDictionary, w, n, p, faults)
	if err != nil {
		return nil, err
	}
	j.partition(w, p.Words())
	j.sigs = fault.NewSignatures(len(faults), len(n.POs), p.Words())
	if err := c.run(ctx, j, opt); err != nil {
		return nil, err
	}
	return j.sigs, nil
}

func validateJob(n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault) error {
	if p.Inputs != len(n.PIs) {
		return fmt.Errorf("cluster: pattern width %d != PIs %d", p.Inputs, len(n.PIs))
	}
	for i, f := range faults {
		if f.Gate < 0 || f.Gate >= len(n.Gates) {
			return fmt.Errorf("cluster: fault %d gate %d out of range", i, f.Gate)
		}
		if f.Pin >= len(n.Gates[f.Gate].Fanin) {
			return fmt.Errorf("cluster: fault %d pin %d out of range for gate %d", i, f.Pin, f.Gate)
		}
	}
	return nil
}

func (c *Coordinator) newJob(kind JobKind, words int, n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault) (*job, error) {
	c.mu.Lock()
	c.jobSeq++
	id := c.jobSeq
	c.mu.Unlock()
	netHash, err := n.ContentHash()
	if err != nil {
		return nil, err
	}
	setup := encodeSetup(id, kind, words, netHash, p, faults)
	return &job{
		id:       id,
		kind:     kind,
		words:    words,
		setup:    setup,
		net:      n,
		netHash:  netHash,
		inHash:   inputsHash(setup),
		inputs:   p.Inputs,
		npat:     p.N,
		inflight: make(map[int]time.Time),
		finished: make(chan struct{}),
		nFaults:  len(faults),
		nPOs:     len(n.POs),
		pwords:   p.Words(),
	}, nil
}

// partition cuts the job's total units (faults or pattern words) into
// shards of unit each, the last one possibly shorter: the arithmetic
// JournalHeader.spec repeats on replay.
func (j *job) partition(unit, total int) {
	j.unit = unit
	for lo := 0; lo < total; lo += unit {
		j.specs = append(j.specs, shardSpec{lo: uint32(lo), hi: uint32(min(lo+unit, total))})
	}
}

// netlistFrame returns the job's netlist frame payload, encoding it on
// first use.
func (j *job) netlistFrame() ([]byte, error) {
	j.netOnce.Do(func() {
		var b []byte
		if b, j.netErr = j.net.MarshalBinary(); j.netErr == nil {
			j.netFrame = (&netlistMsg{JobID: j.id, NetBytes: b}).encode()
		}
	})
	return j.netFrame, j.netErr
}

// header describes the job for the write-ahead journal.
func (j *job) header() *JournalHeader {
	return &JournalHeader{
		Kind:        j.kind,
		Words:       uint8(j.words),
		NFaults:     uint32(j.nFaults),
		NPOs:        uint32(j.nPOs),
		Inputs:      uint32(j.inputs),
		NPat:        uint32(j.npat),
		ShardUnit:   uint32(j.unit),
		NShards:     uint32(len(j.specs)),
		CircuitHash: j.netHash,
		InputsHash:  j.inHash,
	}
}

// merge writes one validated shard result into the job's output region.
// Regions of distinct shards are disjoint by construction. Live jobs
// merge under c.mu; resume pre-merges before the job is installed, when
// no session can see it.
func (j *job) merge(idx int, res *resultMsg) {
	spec := j.specs[idx]
	switch j.kind {
	case KindDetect:
		for i, v := range res.DetBy {
			j.detBy[int(spec.lo)+i] = int(v)
			if v >= 0 {
				j.detected++
			}
		}
	case KindDictionary:
		for _, row := range res.Rows {
			copy(j.sigs[row.Fi].Bits[row.Po][spec.lo:spec.hi], row.Words)
		}
	}
}

// run installs the job, lets sessions drain it, and waits for completion,
// cancellation or coordinator close. Resume state pre-merges journaled
// shards before any session can see the job; a fresh journal gets the job
// header before any shard dispatches.
func (c *Coordinator) run(ctx context.Context, j *job, opt JobOptions) error {
	c.jobMu.Lock()
	defer c.jobMu.Unlock()

	j.journal = opt.Journal
	j.pending = make([]int, 0, len(j.specs))
	j.queued = make([]bool, len(j.specs))
	j.failures = make([]int, len(j.specs))
	j.done = make([]bool, len(j.specs))

	if opt.Resume != nil {
		if err := opt.Resume.Header.matches(j.header()); err != nil {
			return err
		}
		for _, res := range opt.Resume.results {
			idx := int(res.Shard) // < NShards == len(j.specs), pinned by ReadJournal + matches
			if j.done[idx] {
				continue // duplicate record: identical bytes, first wins
			}
			// ReadJournal validated every record against the header
			// geometry; re-check against the actual job anyway so a
			// hand-built Replay cannot corrupt the merge.
			if err := validateResult(j.kind, j.specs[idx], res, j.nFaults, j.nPOs); err != nil {
				return fmt.Errorf("%w: shard %d record: %v", ErrJournalCorrupt, idx, err)
			}
			j.merge(idx, res)
			j.done[idx] = true
			j.nDone++
		}
		c.cfg.Logf("cluster: job %d (%s): resumed %d/%d shards from journal", j.id, j.kind, j.nDone, len(j.specs))
	} else if j.journal != nil {
		if err := j.journal.WriteHeader(j.header()); err != nil {
			return fmt.Errorf("journal header: %w", err)
		}
	}
	for i := range j.specs {
		if !j.done[i] {
			j.pending = append(j.pending, i)
			j.queued[i] = true
		}
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if j.nDone == len(j.specs) {
		c.mu.Unlock()
		return nil // empty job, or the journal already held every shard
	}
	c.job = j
	c.cond.Broadcast()
	c.mu.Unlock()
	c.cfg.Logf("cluster: job %d (%s): %d shards", j.id, j.kind, len(j.specs))

	stopMonitor := make(chan struct{})
	go c.monitor(j, stopMonitor)

	select {
	case <-j.finished:
	case <-ctx.Done():
		c.mu.Lock()
		c.failJobLocked(j, ctx.Err())
		c.mu.Unlock()
	}
	close(stopMonitor)

	c.mu.Lock()
	c.job = nil
	err := j.err
	c.cond.Broadcast()
	c.mu.Unlock()
	return err
}

// monitor re-dispatches stragglers: any inflight shard older than the
// deadline goes back on the pending queue (its original dispatch stays
// outstanding — first result wins).
func (c *Coordinator) monitor(j *job, stop chan struct{}) {
	tick := max(c.cfg.Deadline/4, 5*time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-j.finished:
			return
		case now := <-t.C:
			c.mu.Lock()
			for idx, since := range j.inflight {
				if !j.done[idx] && !j.queued[idx] && now.Sub(since) > c.cfg.Deadline {
					j.pending = append(j.pending, idx)
					j.queued[idx] = true
					j.inflight[idx] = now // don't re-add every tick
					c.stats.Redispatches++
					c.cfg.Logf("cluster: job %d: shard %d overdue, re-dispatching", j.id, idx)
				}
			}
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
}

func (c *Coordinator) failJobLocked(j *job, err error) {
	if j.err == nil {
		j.err = err
	}
	select {
	case <-j.finished:
	default:
		close(j.finished)
	}
	c.cond.Broadcast()
}

// takeShard blocks until a shard is available for dispatch, the job ends,
// or the coordinator closes. ok=false means the session should send Done
// and go back to waiting for the next job.
func (c *Coordinator) takeShard(j *job) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || j.err != nil || j.nDone == len(j.specs) {
			return 0, false
		}
		for len(j.pending) > 0 {
			idx := j.pending[0]
			j.pending = j.pending[1:]
			j.queued[idx] = false
			if j.done[idx] {
				continue
			}
			j.inflight[idx] = time.Now()
			c.stats.ShardsDispatched++
			return idx, true
		}
		c.cond.Wait()
	}
}

// requeue puts a dispatched shard back on the queue after a session-level
// failure (connection loss, timeout, protocol error). Idempotent: done or
// already-queued shards are left alone.
func (c *Coordinator) requeue(j *job, idx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requeueLocked(j, idx)
}

// requeueLocked is requeue with c.mu held.
func (c *Coordinator) requeueLocked(j *job, idx int) {
	if !j.done[idx] && !j.queued[idx] {
		j.pending = append(j.pending, idx)
		j.queued[idx] = true
		j.inflight[idx] = time.Now()
		c.cond.Broadcast()
	}
}

// maxShardFailures is how many times one shard may come back as a worker
// error before the job is failed as a whole — the guard that turns a
// deterministically failing shard into a typed job error instead of an
// infinite re-dispatch loop.
const maxShardFailures = 3

// shardFailed counts a worker-reported failure against the shard and either
// requeues it or — past maxShardFailures — fails the whole job, so a
// deterministically poisoned shard cannot re-dispatch forever.
func (c *Coordinator) shardFailed(j *job, idx int, werr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.ShardFailures++
	j.failures[idx]++
	if j.failures[idx] >= maxShardFailures {
		c.failJobLocked(j, fmt.Errorf("shard %d failed %d times: %w", idx, j.failures[idx], werr))
		return
	}
	c.requeueLocked(j, idx)
}

// validateResult checks one shard result against its spec: range and
// kind must match, indices must be in bounds. Shared by the live deliver
// path and journal replay, so a journaled record can never merge anything
// a live result could not.
func validateResult(kind JobKind, spec shardSpec, res *resultMsg, nFaults, nPOs int) error {
	if res.Kind != kind || res.Lo != spec.lo || res.Hi != spec.hi {
		return fmt.Errorf("%w: result range [%d,%d) kind %v, want [%d,%d) kind %v",
			ErrMalformed, res.Lo, res.Hi, res.Kind, spec.lo, spec.hi, kind)
	}
	switch kind {
	case KindDetect:
		for _, v := range res.DetBy {
			if v < -1 {
				return fmt.Errorf("%w: detect index %d", ErrMalformed, v)
			}
		}
	case KindDictionary:
		span := int(spec.hi - spec.lo)
		for _, row := range res.Rows {
			if int(row.Fi) >= nFaults || int(row.Po) >= nPOs || len(row.Words) != span {
				return fmt.Errorf("%w: signature row (fault %d, po %d, %d words)", ErrMalformed, row.Fi, row.Po, len(row.Words))
			}
		}
	}
	return nil
}

// hitCrash consults the chaos crash hook at a named crash point. A firing
// hook means the coordinator "dies" here: the journal freezes exactly as
// a killed process would leave it, and the job fails with ErrCrashed.
// Ordering matters — the journal dies first, so nothing can append after
// the moment of death.
func (c *Coordinator) hitCrash(j *job, point string) bool {
	if c.cfg.CrashHook == nil || !c.cfg.CrashHook(point) {
		return false
	}
	if j.journal != nil {
		j.journal.kill()
	}
	c.mu.Lock()
	c.failJobLocked(j, ErrCrashed)
	c.mu.Unlock()
	c.cfg.Logf("cluster: chaos crash at %q", point)
	return true
}

// deliver validates, journals and merges one shard result. The first
// result for a shard wins; later ones (stragglers that were re-dispatched)
// are counted and discarded — re-execution is deterministic, so discarding
// loses nothing. Returns an error only for results that prove the worker
// is confused (range mismatch, out-of-bounds indices); the caller drops
// that worker and the shard is re-dispatched.
//
// The order is claim → journal append → sync → merge: the shard is
// claimed under the lock (gating duplicates exactly once), the record
// becomes durable outside the lock (fsync must not serialize sessions),
// and only then does the region merge — so every merged shard is in the
// journal, and a crash at any boundary between these steps loses nothing
// a resume cannot recompute.
func (c *Coordinator) deliver(j *job, idx int, res *resultMsg) error {
	if err := validateResult(j.kind, j.specs[idx], res, j.nFaults, j.nPOs); err != nil {
		return err
	}
	c.mu.Lock()
	if j.done[idx] || j.err != nil {
		c.stats.Duplicates++
		c.mu.Unlock()
		return nil
	}
	j.done[idx] = true
	delete(j.inflight, idx)
	c.mu.Unlock()

	if j.journal != nil {
		if err := j.journal.Append(res); err != nil {
			c.mu.Lock()
			c.failJobLocked(j, fmt.Errorf("journal append: %w", err))
			c.mu.Unlock()
			return nil
		}
		if c.hitCrash(j, chaos.CrashAfterResultBeforeSync) {
			return nil
		}
		if err := j.journal.Sync(); err != nil {
			c.mu.Lock()
			c.failJobLocked(j, fmt.Errorf("journal sync: %w", err))
			c.mu.Unlock()
			return nil
		}
		if c.hitCrash(j, chaos.CrashAfterJournalSync) {
			return nil
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if j.err != nil {
		return nil // crashed or failed between claim and merge; result discarded
	}
	j.merge(idx, res)
	j.nDone++
	if j.nDone == len(j.specs) {
		select {
		case <-j.finished:
		default:
			close(j.finished)
		}
	}
	c.cond.Broadcast()
	return nil
}

// nextJob blocks until a job newer than lastID is active (a session that
// finished job N must not re-join it) or the coordinator closes.
func (c *Coordinator) nextJob(lastID uint64) *job {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil
		}
		if j := c.job; j != nil && j.id > lastID && j.err == nil && j.nDone < len(j.specs) {
			return j
		}
		c.cond.Wait()
	}
}

// handle runs one worker connection: handshake, then serve jobs until the
// connection drops or the coordinator closes.
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(c.cfg.SessionTimeout))
	ft, payload, err := ReadFrame(conn, wire.DefaultMaxFrame)
	if err != nil || ft != FrameHello {
		c.cfg.Logf("cluster: rejected connection: frame %v err %v", ft, err)
		return
	}
	hello, err := decodeHello(payload)
	if err != nil || hello.Proto != WireVersion {
		c.cfg.Logf("cluster: rejected handshake: %v", err)
		return
	}
	c.mu.Lock()
	c.stats.WorkersJoined++
	c.mu.Unlock()
	c.cfg.Logf("cluster: worker %q joined", hello.ID)

	lastID := uint64(0)
	for {
		j := c.nextJob(lastID)
		if j == nil {
			return
		}
		lastID = j.id
		if err := c.serveJob(j, conn, hello.ID); err != nil {
			c.mu.Lock()
			c.stats.WorkersLost++
			c.mu.Unlock()
			c.cfg.Logf("cluster: worker %q dropped: %v", hello.ID, err)
			return
		}
	}
}

// setupWorker hands one worker the job: it sends the setup and reads the
// worker's reply, sending the netlist frame once if the worker asks for it.
// It returns nil once the worker is ready for shards. A refusal fails the
// whole job: the worker checked the job definition against the circuit,
// which is deterministic, so retrying elsewhere cannot help.
func (c *Coordinator) setupWorker(j *job, conn net.Conn, workerID string) error {
	conn.SetWriteDeadline(time.Now().Add(c.cfg.SessionTimeout))
	if err := WriteFrame(conn, FrameSetup, j.setup); err != nil {
		return fmt.Errorf("setup write: %w", err)
	}
	sentNet := false
	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.SessionTimeout))
		ft, payload, err := ReadFrame(conn, wire.DefaultMaxFrame)
		if err != nil {
			return fmt.Errorf("setup reply: %w", err)
		}
		if ft != FrameSetupReply {
			return fmt.Errorf("setup reply: %w: %v", ErrProtocol, ft)
		}
		m, err := decodeSetupReply(payload)
		if err != nil {
			return fmt.Errorf("setup reply: %w", err)
		}
		if m.JobID != j.id {
			return fmt.Errorf("setup reply: %w: got job %d", ErrJobMismatch, m.JobID)
		}
		switch m.Status {
		case setupReady:
			return nil
		case setupNeedNet:
			if sentNet {
				return fmt.Errorf("setup reply: %w: netlist asked for twice", ErrProtocol)
			}
			frame, err := j.netlistFrame()
			if err != nil {
				c.mu.Lock()
				c.failJobLocked(j, err)
				c.mu.Unlock()
				return err
			}
			// Counted before the write, so the count is complete by the
			// time the worker can answer ready.
			c.mu.Lock()
			c.stats.NetlistsSent++
			c.mu.Unlock()
			sentNet = true
			conn.SetWriteDeadline(time.Now().Add(c.cfg.SessionTimeout))
			if err := WriteFrame(conn, FrameNetlist, frame); err != nil {
				return fmt.Errorf("netlist write: %w", err)
			}
		default: // setupRefused
			werr := fmt.Errorf("%w: worker %q refused the setup: %s", ErrWorkerFailed, workerID, m.Msg)
			c.mu.Lock()
			c.failJobLocked(j, werr)
			c.mu.Unlock()
			return werr
		}
	}
}

// serveJob drives one worker through one job: setup, then a
// dispatch/collect loop until the job completes or the worker fails. Any
// error re-queues the outstanding shard before returning, so a lost or
// misbehaving worker never strands work.
func (c *Coordinator) serveJob(j *job, conn net.Conn, workerID string) error {
	if err := c.setupWorker(j, conn, workerID); err != nil {
		return err
	}
	for {
		idx, ok := c.takeShard(j)
		if !ok {
			// Best-effort: a broken conn here is fine, the job is over.
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			WriteFrame(conn, FrameDone, (&doneMsg{JobID: j.id}).encode())
			conn.SetWriteDeadline(time.Time{})
			return nil
		}
		spec := j.specs[idx]
		sm := &shardMsg{JobID: j.id, Shard: uint32(idx), Lo: spec.lo, Hi: spec.hi}
		conn.SetWriteDeadline(time.Now().Add(c.cfg.SessionTimeout))
		if err := WriteFrame(conn, FrameShard, sm.encode()); err != nil {
			c.requeue(j, idx)
			return fmt.Errorf("shard %d write: %w", idx, err)
		}
		if c.hitCrash(j, chaos.CrashAfterDispatch) {
			return ErrCrashed // dispatched, nothing journaled: resume re-dispatches
		}
		conn.SetReadDeadline(time.Now().Add(c.cfg.SessionTimeout))
		ft, payload, err := ReadFrame(conn, wire.DefaultMaxFrame)
		if err != nil {
			c.requeue(j, idx)
			return fmt.Errorf("shard %d result: %w", idx, err)
		}
		switch ft {
		case FrameResult:
			res, derr := decodeResult(payload)
			if derr != nil {
				c.requeue(j, idx)
				return fmt.Errorf("shard %d: %w", idx, derr)
			}
			if res.JobID != j.id || res.Shard != uint32(idx) {
				c.requeue(j, idx)
				return fmt.Errorf("shard %d: %w: got job %d shard %d", idx, ErrJobMismatch, res.JobID, res.Shard)
			}
			if derr := c.deliver(j, idx, res); derr != nil {
				c.requeue(j, idx)
				return fmt.Errorf("shard %d: %w", idx, derr)
			}
		case FrameError:
			em, derr := decodeError(payload)
			if derr != nil {
				c.requeue(j, idx)
				return derr
			}
			werr := fmt.Errorf("%w: worker %q: %s", ErrWorkerFailed, workerID, em.Msg)
			c.shardFailed(j, idx, werr)
			return werr
		default:
			c.requeue(j, idx)
			return fmt.Errorf("shard %d: %w: %v", idx, ErrProtocol, ft)
		}
	}
}
