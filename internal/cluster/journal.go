package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/logic"
	"repro/internal/wire"
)

// Journal frame types, outside the live-protocol range (1–6) so a journal
// file can never be mistaken for a wire capture. Journal frames reuse the
// wire layer's framing — magic, version, length, sha256(payload) — which
// is what makes torn tails and bit rot typed detections instead of
// garbage decodes.
const (
	frameJournalHeader FrameType = 16 // job header: kind, geometry, input hashes
	frameJournalShard  FrameType = 17 // one verified shard result (resultMsg encoding)
)

// Typed journal errors.
var (
	// ErrJournalCorrupt marks a journal whose intact-looking contents are
	// semantically invalid (undecodable header, record for an impossible
	// shard, out-of-range indices). Unlike a torn tail, corruption is not
	// silently discarded: resuming from it is refused.
	ErrJournalCorrupt = errors.New("cluster: corrupt journal")
	// ErrJournalMismatch marks a journal whose header does not describe the
	// job being resumed (different circuit, patterns, faults, words or
	// shard geometry).
	ErrJournalMismatch = errors.New("cluster: journal does not match job")
	// ErrCrashed is the job error after a chaos crash hook fires: the
	// coordinator behaves exactly as if the process died at that point.
	ErrCrashed = errors.New("cluster: coordinator crashed at chaos point")
)

// SyncWriter is the durability contract a journal destination must offer:
// buffered writes plus an explicit barrier that makes everything written
// so far survive a crash. *os.File satisfies it; chaos.VolatileFile
// models it for deterministic in-process crash tests.
type SyncWriter interface {
	io.Writer
	Sync() error
}

// JournalHeader pins a journal to one exact job: the circuit content
// hash, a digest of the patterns and fault list, the engine parameters
// and the shard geometry. Resume refuses (ErrJournalMismatch) unless
// every field matches the job being resumed — shard indices in the
// records are only meaningful under the exact same partitioning.
type JournalHeader struct {
	Kind        JobKind
	Words       uint8
	NFaults     uint32
	NPOs        uint32
	Inputs      uint32
	NPat        uint32
	ShardUnit   uint32 // faults per shard (detect) or pattern words per shard (dictionary)
	NShards     uint32
	CircuitHash [32]byte // sha256 of the canonical netlist encoding (== setup NetHash)
	InputsHash  [32]byte // sha256 over the pattern bits and fault list
}

func (h *JournalHeader) encode() []byte {
	b := wire.AppendU8(nil, uint8(h.Kind))
	b = wire.AppendU8(b, h.Words)
	b = wire.AppendU32(b, h.NFaults)
	b = wire.AppendU32(b, h.NPOs)
	b = wire.AppendU32(b, h.Inputs)
	b = wire.AppendU32(b, h.NPat)
	b = wire.AppendU32(b, h.ShardUnit)
	b = wire.AppendU32(b, h.NShards)
	b = append(b, h.CircuitHash[:]...)
	return append(b, h.InputsHash[:]...)
}

func decodeJournalHeader(payload []byte) (*JournalHeader, error) {
	d := wire.NewDec(payload)
	h := &JournalHeader{
		Kind:      JobKind(d.U8()),
		Words:     d.U8(),
		NFaults:   d.U32(),
		NPOs:      d.U32(),
		Inputs:    d.U32(),
		NPat:      d.U32(),
		ShardUnit: d.U32(),
		NShards:   d.U32(),
	}
	copy(h.CircuitHash[:], d.Raw(32))
	copy(h.InputsHash[:], d.Raw(32))
	if err := malformed(d.Close()); err != nil {
		return nil, err
	}
	if h.Kind != KindDetect && h.Kind != KindDictionary {
		return nil, fmt.Errorf("%w: unknown job kind %d", ErrMalformed, h.Kind)
	}
	if h.ShardUnit == 0 {
		return nil, fmt.Errorf("%w: zero shard unit", ErrMalformed)
	}
	// The shard count must be the one the geometry implies — the record
	// validator derives each shard's range from (unit, total), so an
	// inconsistent count would let records address ranges that never
	// existed.
	if want := (h.total() + int(h.ShardUnit) - 1) / int(h.ShardUnit); want != int(h.NShards) {
		return nil, fmt.Errorf("%w: %d shards but geometry implies %d", ErrMalformed, h.NShards, want)
	}
	return h, nil
}

// total is the number of units being sharded: faults for detect jobs,
// pattern words for dictionary jobs.
func (h *JournalHeader) total() int {
	switch h.Kind {
	case KindDictionary:
		return (int(h.NPat) + logic.WordBits - 1) / logic.WordBits
	default:
		return int(h.NFaults)
	}
}

// spec reconstructs shard i's range from the header geometry — the same
// arithmetic the coordinator's partitioners use, which is what lets a
// replay validate records without the original job object.
func (h *JournalHeader) spec(i int) shardSpec {
	lo := i * int(h.ShardUnit)
	hi := min(lo+int(h.ShardUnit), h.total())
	return shardSpec{lo: uint32(lo), hi: uint32(hi)}
}

// matches checks a journal header against the header of the job being
// resumed, returning a typed ErrJournalMismatch naming the first
// divergent field.
func (h *JournalHeader) matches(cur *JournalHeader) error {
	switch {
	case h.CircuitHash != cur.CircuitHash:
		return fmt.Errorf("%w: circuit hash %x.. != %x..", ErrJournalMismatch, h.CircuitHash[:4], cur.CircuitHash[:4])
	case h.InputsHash != cur.InputsHash:
		return fmt.Errorf("%w: pattern/fault hash %x.. != %x..", ErrJournalMismatch, h.InputsHash[:4], cur.InputsHash[:4])
	case h.Kind != cur.Kind:
		return fmt.Errorf("%w: job kind %v != %v", ErrJournalMismatch, h.Kind, cur.Kind)
	case h.Words != cur.Words:
		return fmt.Errorf("%w: words %d != %d", ErrJournalMismatch, h.Words, cur.Words)
	case h.NFaults != cur.NFaults || h.NPOs != cur.NPOs || h.Inputs != cur.Inputs || h.NPat != cur.NPat:
		return fmt.Errorf("%w: dimensions (faults %d, POs %d, inputs %d, patterns %d) != (%d, %d, %d, %d)",
			ErrJournalMismatch, h.NFaults, h.NPOs, h.Inputs, h.NPat, cur.NFaults, cur.NPOs, cur.Inputs, cur.NPat)
	case h.ShardUnit != cur.ShardUnit || h.NShards != cur.NShards:
		return fmt.Errorf("%w: shard geometry (unit %d, %d shards) != (unit %d, %d shards)",
			ErrJournalMismatch, h.ShardUnit, h.NShards, cur.ShardUnit, cur.NShards)
	}
	return nil
}

// Journal is the coordinator's append-only write-ahead log: one header
// frame, then one record frame per verified shard result. Appends buffer;
// Sync is the durability barrier — the coordinator appends a result, then
// syncs, then merges, so every merged shard is durable first. Safe for
// concurrent use by the coordinator's sessions.
type Journal struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	dst SyncWriter
	err error // sticky: first I/O error, or ErrCrashed after kill
}

// NewJournal wraps a destination. No header is written until WriteHeader
// — a resumed journal already has one and just keeps appending.
func NewJournal(dst SyncWriter) *Journal {
	return &Journal{bw: bufio.NewWriter(dst), dst: dst}
}

// WriteHeader appends the job header and syncs it, so even a journal of a
// job that crashed before any shard completed identifies its job.
func (l *Journal) WriteHeader(h *JournalHeader) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := WriteFrame(l.bw, frameJournalHeader, h.encode()); err != nil {
		l.err = err
		return err
	}
	return l.syncLocked()
}

// Append buffers one shard-result record. It is NOT durable until Sync.
func (l *Journal) Append(res *resultMsg) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := WriteFrame(l.bw, frameJournalShard, res.encode()); err != nil {
		l.err = err
	}
	return l.err
}

// Sync flushes buffered records and commits them to durable storage.
func (l *Journal) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

func (l *Journal) syncLocked() error {
	if err := l.bw.Flush(); err != nil {
		l.err = err
		return err
	}
	if err := l.dst.Sync(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// kill freezes the journal at a chaos crash: every later Append/Sync
// returns ErrCrashed, leaving the destination holding exactly the bytes a
// dead process would have left behind (synced frames plus whatever the
// buffer had flushed — possibly a torn tail).
func (l *Journal) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = ErrCrashed
	}
}

// Replay is a journal's recovered contents: the validated header, every
// intact shard record, and how much of the byte stream they span.
type Replay struct {
	Header *JournalHeader
	// Torn reports that the byte stream ended in a damaged frame (partial
	// write at the crash, or rot past the valid prefix). The damaged
	// suffix is discarded — its shards simply recompute on resume.
	Torn bool
	// Valid is the byte length of the intact prefix. A resuming process
	// truncates the file here before appending, so a torn tail cannot
	// desync later records.
	Valid int64

	results []*resultMsg
}

// Shards reports how many intact shard records the replay recovered.
func (r *Replay) Shards() int { return len(r.results) }

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	k, err := cr.r.Read(p)
	cr.n += int64(k)
	return k, err
}

// ReadJournal replays a journal byte stream. The distinction between its
// two failure modes is deliberate:
//
//   - Frame-level damage after a valid prefix (truncated frame, payload
//     hash mismatch) is a torn tail — the expected residue of a crash
//     mid-append. The suffix is discarded, Replay.Torn is set, and no
//     error is returned: resume recomputes the lost shards.
//   - Records whose framing is intact but whose content is invalid (bad
//     header, impossible shard index, out-of-range rows) mean the file is
//     not a truthful journal of any job; that is ErrJournalCorrupt and
//     resume from it is refused rather than risking a wrong merge.
//
// It never panics on arbitrary input (FuzzJournal pins this).
func ReadJournal(r io.Reader) (*Replay, error) {
	cr := &countingReader{r: r}
	ft, payload, err := ReadFrame(cr, wire.DefaultMaxFrame)
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrJournalCorrupt, err)
	}
	if ft != frameJournalHeader {
		return nil, fmt.Errorf("%w: first frame is %v, want journal header", ErrJournalCorrupt, ft)
	}
	h, err := decodeJournalHeader(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrJournalCorrupt, err)
	}
	rep := &Replay{Header: h, Valid: cr.n}
	for {
		ft, payload, err := ReadFrame(cr, wire.DefaultMaxFrame)
		if err == io.EOF {
			return rep, nil // clean end at a frame boundary
		}
		if err != nil {
			rep.Torn = true
			return rep, nil
		}
		if ft != frameJournalShard {
			return nil, fmt.Errorf("%w: unexpected frame %v in record stream", ErrJournalCorrupt, ft)
		}
		res, derr := decodeResult(payload)
		if derr != nil {
			return nil, fmt.Errorf("%w: shard record: %v", ErrJournalCorrupt, derr)
		}
		idx := int(res.Shard)
		if idx >= int(h.NShards) {
			return nil, fmt.Errorf("%w: record for shard %d of %d", ErrJournalCorrupt, idx, h.NShards)
		}
		if verr := validateResult(h.Kind, h.spec(idx), res, int(h.NFaults), int(h.NPOs)); verr != nil {
			return nil, fmt.Errorf("%w: shard %d record: %v", ErrJournalCorrupt, idx, verr)
		}
		rep.results = append(rep.results, res)
		rep.Valid = cr.n
	}
}
