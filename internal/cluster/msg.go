package cluster

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/wire"
)

// JobKind selects which engine a job runs on its shards.
type JobKind uint8

// Job kinds.
const (
	KindDetect     JobKind = 1 // fault detection with per-shard dropping (fault.Simulator.RunInto)
	KindDictionary JobKind = 2 // the nonzero signature rows of one W-block of pattern words (fault.Simulator.DictionaryBlock)
)

func (k JobKind) String() string {
	switch k {
	case KindDetect:
		return "detect"
	case KindDictionary:
		return "dictionary"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// helloMsg is the worker's join handshake.
type helloMsg struct {
	Proto uint16
	ID    string
}

// setupMsg carries the job definition: the content hash of the canonical
// netlist (which pins every later shard of the job to one exact circuit),
// the pattern set and the explicit fault list. The netlist itself does not
// ride along: a worker whose cache holds the circuit of NetHash answers
// ready at once, and one that does not asks for it (setupReplyMsg), so the
// bytes cross the wire only on a cache miss (netlistMsg).
type setupMsg struct {
	JobID   uint64
	Kind    JobKind
	Words   uint8
	NetHash [32]byte
	Inputs  int
	NPat    int
	PatBits [][]logic.Word // [input][word], exactly as logic.PatternSet stores them
	Faults  []fault.Fault
}

// setupHeaderSize is the length of a setup payload's header (JobID, Kind,
// Words, NetHash). The rest of the payload — Inputs, NPat, pattern words,
// fault list — is the job's inputs, and its sha256 is the journal header's
// InputsHash.
const setupHeaderSize = 8 + 1 + 1 + sha256.Size

// setupStatus is a worker's answer to a setup or a netlist frame.
type setupStatus uint8

// Setup reply statuses.
const (
	setupReady   setupStatus = 1 // the job is installed: send shards
	setupNeedNet setupStatus = 2 // the circuit of NetHash is not cached: send a netlist frame
	setupRefused setupStatus = 3 // the job definition is unrunnable here; Msg says why
)

// setupReplyMsg is the worker's reply to a setup frame, and to the netlist
// frame that a setupNeedNet reply asks for. A refusal is deterministic, so
// the coordinator fails the job instead of retrying it elsewhere.
type setupReplyMsg struct {
	JobID  uint64
	Status setupStatus
	Msg    string // setupRefused: the reason
}

// netlistMsg carries the canonical netlist bytes (circuit.MarshalBinary)
// of a job, sent only when the worker asked for them. The worker checks
// their sha256 against the setup's NetHash before it decodes them.
type netlistMsg struct {
	JobID    uint64
	NetBytes []byte
}

// shardMsg is one work unit. For KindDetect, [Lo,Hi) is a fault-index
// range; for KindDictionary it is one W-block of pattern-word columns,
// [lo, min(lo+W, words)) with lo a multiple of W.
type shardMsg struct {
	JobID  uint64
	Shard  uint32
	Lo, Hi uint32
}

// resultMsg is a shard's partial result. For KindDetect, DetBy holds the
// per-fault first-detection indices of the shard's fault range. For
// KindDictionary, Rows holds each fault's sparse signature entries over the
// shard's column range.
type resultMsg struct {
	JobID  uint64
	Shard  uint32
	Kind   JobKind
	Lo, Hi uint32
	DetBy  []int32    // KindDetect: len Hi-Lo, -1 = undetected
	Rows   []sigEntry // KindDictionary: sparse nonzero (fault, po) rows
}

// sigEntry is one nonzero signature row fragment: the Hi-Lo column words of
// (fault Fi, output Po).
type sigEntry struct {
	Fi    uint32
	Po    uint32
	Words []logic.Word
}

// errorMsg reports a typed worker-side failure for a shard.
type errorMsg struct {
	JobID uint64
	Shard uint32
	Msg   string
}

// doneMsg tells the worker the job completed; it returns to awaiting the
// next setup on the same connection. The worker acts on the frame type
// alone and never decodes the payload.
type doneMsg struct {
	JobID uint64
}

// ---------------------------------------------------------------------------
// Message encode/decode: explicit field-by-field big-endian serialization
// on the canonical wire codec. Decoding runs a sticky-error wire.Dec
// cursor, so decode paths read linearly; every malformation — a codec
// failure or an implausible field — is classified as ErrMalformed.

// malformed classifies a codec failure (nil stays nil) as ErrMalformed.
func malformed(err error) error {
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return nil
}

func (m *helloMsg) encode() []byte {
	b := wire.AppendU16(nil, m.Proto)
	return wire.AppendString(b, m.ID)
}

func decodeHello(payload []byte) (*helloMsg, error) {
	d := wire.NewDec(payload)
	m := &helloMsg{Proto: d.U16(), ID: d.String()}
	return m, malformed(d.Close())
}

func (m *setupMsg) encode() []byte {
	// Sized exactly: a large pattern set or fault list makes a setup
	// large, and growing it by appends would allocate several times its size.
	size := setupHeaderSize + 4 + 4 + 4 + 9*len(m.Faults)
	for _, row := range m.PatBits {
		size += 8 * len(row)
	}
	b := wire.AppendU64(make([]byte, 0, size), m.JobID)
	b = wire.AppendU8(b, uint8(m.Kind))
	b = wire.AppendU8(b, m.Words)
	b = append(b, m.NetHash[:]...)
	b = wire.AppendU32(b, uint32(m.Inputs))
	b = wire.AppendU32(b, uint32(m.NPat))
	for _, row := range m.PatBits {
		for _, w := range row {
			b = wire.AppendU64(b, w)
		}
	}
	b = wire.AppendU32(b, uint32(len(m.Faults)))
	for _, f := range m.Faults {
		b = wire.AppendU32(b, uint32(f.Gate))
		b = wire.AppendU32(b, uint32(int32(f.Pin)))
		b = wire.AppendU8(b, f.SA)
	}
	return b
}

func decodeSetup(payload []byte) (*setupMsg, error) {
	d := wire.NewDec(payload)
	m := &setupMsg{
		JobID: d.U64(),
		Kind:  JobKind(d.U8()),
		Words: d.U8(),
	}
	copy(m.NetHash[:], d.Raw(sha256.Size))
	m.Inputs = int(d.U32())
	m.NPat = int(d.U32())
	if err := d.Err(); err != nil {
		return nil, malformed(err)
	}
	if m.Kind != KindDetect && m.Kind != KindDictionary {
		return nil, fmt.Errorf("%w: unknown job kind %d", ErrMalformed, m.Kind)
	}
	// Inputs is bounded on its own too: with NPat = 0 the product is 0
	// whatever Inputs claims, and PatBits still allocates one row per input.
	words := (m.NPat + logic.WordBits - 1) / logic.WordBits
	if m.Inputs < 0 || m.NPat < 0 || m.Inputs > len(payload) || m.Inputs*words*8 > len(payload) {
		return nil, fmt.Errorf("%w: implausible pattern dimensions %d×%d", ErrMalformed, m.Inputs, m.NPat)
	}
	m.PatBits = make([][]logic.Word, m.Inputs)
	backing := make([]logic.Word, m.Inputs*words)
	for i := range m.PatBits {
		m.PatBits[i], backing = backing[:words:words], backing[words:]
		for w := 0; w < words; w++ {
			m.PatBits[i][w] = d.U64()
		}
	}
	nf := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, malformed(err)
	}
	if nf < 0 || nf*9 > len(payload) {
		return nil, fmt.Errorf("%w: implausible fault count %d", ErrMalformed, nf)
	}
	m.Faults = make([]fault.Fault, nf)
	for i := range m.Faults {
		m.Faults[i] = fault.Fault{Gate: int(d.U32()), Pin: int(int32(d.U32())), SA: d.U8()}
	}
	return m, malformed(d.Close())
}

func (m *setupReplyMsg) encode() []byte {
	b := wire.AppendU64(nil, m.JobID)
	b = wire.AppendU8(b, uint8(m.Status))
	return wire.AppendString(b, m.Msg)
}

func decodeSetupReply(payload []byte) (*setupReplyMsg, error) {
	d := wire.NewDec(payload)
	m := &setupReplyMsg{JobID: d.U64(), Status: setupStatus(d.U8()), Msg: d.String()}
	if err := d.Close(); err != nil {
		return nil, malformed(err)
	}
	if m.Status < setupReady || m.Status > setupRefused {
		return nil, fmt.Errorf("%w: unknown setup status %d", ErrMalformed, m.Status)
	}
	return m, nil
}

func (m *netlistMsg) encode() []byte {
	b := wire.AppendU64(make([]byte, 0, 8+4+len(m.NetBytes)), m.JobID)
	return wire.AppendBytes(b, m.NetBytes)
}

func decodeNetlist(payload []byte) (*netlistMsg, error) {
	d := wire.NewDec(payload)
	m := &netlistMsg{JobID: d.U64(), NetBytes: d.Bytes()}
	return m, malformed(d.Close())
}

func (m *shardMsg) encode() []byte {
	b := wire.AppendU64(nil, m.JobID)
	b = wire.AppendU32(b, m.Shard)
	b = wire.AppendU32(b, m.Lo)
	return wire.AppendU32(b, m.Hi)
}

func decodeShard(payload []byte) (*shardMsg, error) {
	d := wire.NewDec(payload)
	m := &shardMsg{JobID: d.U64(), Shard: d.U32(), Lo: d.U32(), Hi: d.U32()}
	return m, malformed(d.Close())
}

func (m *resultMsg) encode() []byte {
	b := wire.AppendU64(nil, m.JobID)
	b = wire.AppendU32(b, m.Shard)
	b = wire.AppendU8(b, uint8(m.Kind))
	b = wire.AppendU32(b, m.Lo)
	b = wire.AppendU32(b, m.Hi)
	switch m.Kind {
	case KindDetect:
		b = wire.AppendI32s(b, m.DetBy)
	case KindDictionary:
		b = wire.AppendU32(b, uint32(len(m.Rows)))
		for _, r := range m.Rows {
			b = wire.AppendU32(b, r.Fi)
			b = wire.AppendU32(b, r.Po)
			for _, w := range r.Words {
				b = wire.AppendU64(b, w)
			}
		}
	}
	return b
}

func decodeResult(payload []byte) (*resultMsg, error) {
	d := wire.NewDec(payload)
	m := &resultMsg{
		JobID: d.U64(),
		Shard: d.U32(),
		Kind:  JobKind(d.U8()),
		Lo:    d.U32(),
		Hi:    d.U32(),
	}
	if err := d.Err(); err != nil {
		return nil, malformed(err)
	}
	span := int(m.Hi) - int(m.Lo)
	if span < 0 {
		return nil, fmt.Errorf("%w: result range [%d,%d)", ErrMalformed, m.Lo, m.Hi)
	}
	switch m.Kind {
	case KindDetect:
		n := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, malformed(err)
		}
		if n != span || n*4 > len(payload) {
			return nil, fmt.Errorf("%w: detect result count %d for range [%d,%d)", ErrMalformed, n, m.Lo, m.Hi)
		}
		m.DetBy = make([]int32, n)
		for i := range m.DetBy {
			m.DetBy[i] = int32(d.U32())
		}
	case KindDictionary:
		n := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, malformed(err)
		}
		// Bound span and n separately before multiplying: a hostile
		// header (span near 2^30, n near 2^31) would otherwise wrap the
		// byte count to a small value and pass the check.
		if n < 0 || span == 0 || span > len(payload)/8 || n > len(payload)/(8+span*8) {
			return nil, fmt.Errorf("%w: dictionary result rows %d for range [%d,%d)", ErrMalformed, n, m.Lo, m.Hi)
		}
		m.Rows = make([]sigEntry, n)
		backing := make([]logic.Word, n*span)
		for i := range m.Rows {
			m.Rows[i].Fi = d.U32()
			m.Rows[i].Po = d.U32()
			m.Rows[i].Words, backing = backing[:span:span], backing[span:]
			for w := 0; w < span; w++ {
				m.Rows[i].Words[w] = d.U64()
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown result kind %d", ErrMalformed, m.Kind)
	}
	return m, malformed(d.Close())
}

func (m *errorMsg) encode() []byte {
	b := wire.AppendU64(nil, m.JobID)
	b = wire.AppendU32(b, m.Shard)
	return wire.AppendString(b, m.Msg)
}

func decodeError(payload []byte) (*errorMsg, error) {
	d := wire.NewDec(payload)
	m := &errorMsg{JobID: d.U64(), Shard: d.U32(), Msg: d.String()}
	return m, malformed(d.Close())
}

func (m *doneMsg) encode() []byte {
	return wire.AppendU64(nil, m.JobID)
}

// encodeSetup builds the setup payload for a job over the circuit whose
// content hash is netHash (circuit.Netlist.ContentHash), with the given
// patterns and faults.
func encodeSetup(jobID uint64, kind JobKind, words int, netHash [32]byte, p *logic.PatternSet, faults []fault.Fault) []byte {
	m := &setupMsg{
		JobID:   jobID,
		Kind:    kind,
		Words:   uint8(words),
		NetHash: netHash,
		Inputs:  p.Inputs,
		NPat:    p.N,
		PatBits: p.Bits,
		Faults:  faults,
	}
	return m.encode()
}

// inputsHash digests the job inputs the circuit hash does not cover — the
// pattern bits and the explicit fault list — so a journal header can pin a
// job to its exact inputs, not just its circuit. Those inputs are the tail
// of the encoded setup, so one sha256 over it is the digest.
func inputsHash(setup []byte) [32]byte {
	return sha256.Sum256(setup[setupHeaderSize:])
}
