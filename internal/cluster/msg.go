package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// JobKind selects which engine a job runs on its shards.
type JobKind uint8

// Job kinds.
const (
	KindDetect     JobKind = 1 // fault detection with per-shard dropping (fault.Simulator.RunInto)
	KindDictionary JobKind = 2 // full-response dictionary columns (fault.Simulator.DictionaryRange)
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

// setupMsg carries the whole job definition: the canonical netlist bytes
// (plus their content hash, which pins every later shard of the job to one
// exact circuit), the pattern set and the explicit fault list. Workers are
// stateless between jobs: everything a shard needs arrives in one frame.
type setupMsg struct {
	JobID    uint64
	Kind     JobKind
	Words    uint8
	NetBytes []byte
	NetHash  [32]byte
	Inputs   int
	NPat     int
	PatBits  [][]logic.Word // [input][word], exactly as logic.PatternSet stores them
	Faults   []fault.Fault
}

// shardMsg is one work unit. For KindDetect, [Lo,Hi) is a fault-index
// range; for KindDictionary it is a pattern-word column range (W-block
// aligned by the coordinator's partitioner).
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

// errorMsg reports a typed worker-side failure for a shard (or the whole
// setup when Shard is math.MaxUint32).
type errorMsg struct {
	JobID uint64
	Shard uint32
	Msg   string
}

const errorShardSetup = math.MaxUint32

// doneMsg tells the worker the job completed; it returns to awaiting the
// next setup on the same connection.
type doneMsg struct {
	JobID uint64
}

// ---------------------------------------------------------------------------
// Encoding. Explicit field-by-field big-endian serialization over a byte
// buffer; the decoder is a sticky-error cursor, so decode paths read
// linearly and classify every malformation as ErrMalformed.

type encoder struct {
	buf bytes.Buffer
}

func (e *encoder) u8(v uint8) { e.buf.WriteByte(v) }
func (e *encoder) u16(v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) i32(v int32) { e.u32(uint32(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf.WriteString(s)
}

func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf.Write(b)
}

type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// take consumes n bytes. After a failure it returns zeros, at most 8 of
// them — enough for the fixed-width readers — so a hostile length prefix
// never sizes an allocation.
func (d *decoder) take(n int) []byte {
	if d.err == nil && (n < 0 || d.off+n > len(d.data)) {
		d.fail("need %d bytes at offset %d of %d", n, d.off, len(d.data))
	}
	if d.err != nil {
		return make([]byte, min(max(n, 0), 8))
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8   { return d.take(1)[0] }
func (d *decoder) u16() uint16 { return binary.BigEndian.Uint16(d.take(2)) }
func (d *decoder) u32() uint32 { return binary.BigEndian.Uint32(d.take(4)) }
func (d *decoder) u64() uint64 { return binary.BigEndian.Uint64(d.take(8)) }
func (d *decoder) i32() int32  { return int32(d.u32()) }

func (d *decoder) str() string   { return string(d.take(int(d.u32()))) }
func (d *decoder) bytes() []byte { return d.take(int(d.u32())) }

// finish returns the sticky error, or ErrMalformed if trailing bytes remain
// — a frame must decode exactly.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.data)-d.off)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Message encode/decode.

func (m *helloMsg) encode() []byte {
	var e encoder
	e.u16(m.Proto)
	e.str(m.ID)
	return e.buf.Bytes()
}

func decodeHello(payload []byte) (*helloMsg, error) {
	d := &decoder{data: payload}
	m := &helloMsg{Proto: d.u16(), ID: d.str()}
	return m, d.finish()
}

func (m *setupMsg) encode() []byte {
	var e encoder
	e.u64(m.JobID)
	e.u8(uint8(m.Kind))
	e.u8(m.Words)
	e.bytes(m.NetBytes)
	e.buf.Write(m.NetHash[:])
	e.u32(uint32(m.Inputs))
	e.u32(uint32(m.NPat))
	for _, row := range m.PatBits {
		for _, w := range row {
			e.u64(w)
		}
	}
	e.u32(uint32(len(m.Faults)))
	for _, f := range m.Faults {
		e.u32(uint32(f.Gate))
		e.i32(int32(f.Pin))
		e.u8(f.SA)
	}
	return e.buf.Bytes()
}

func decodeSetup(payload []byte) (*setupMsg, error) {
	d := &decoder{data: payload}
	m := &setupMsg{
		JobID: d.u64(),
		Kind:  JobKind(d.u8()),
		Words: d.u8(),
	}
	m.NetBytes = d.bytes()
	copy(m.NetHash[:], d.take(sha256.Size))
	m.Inputs = int(d.u32())
	m.NPat = int(d.u32())
	if d.err != nil {
		return nil, d.err
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
			m.PatBits[i][w] = d.u64()
		}
	}
	nf := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if nf < 0 || nf*9 > len(payload) {
		return nil, fmt.Errorf("%w: implausible fault count %d", ErrMalformed, nf)
	}
	m.Faults = make([]fault.Fault, nf)
	for i := range m.Faults {
		m.Faults[i] = fault.Fault{Gate: int(d.u32()), Pin: int(d.i32()), SA: d.u8()}
	}
	return m, d.finish()
}

func (m *shardMsg) encode() []byte {
	var e encoder
	e.u64(m.JobID)
	e.u32(m.Shard)
	e.u32(m.Lo)
	e.u32(m.Hi)
	return e.buf.Bytes()
}

func decodeShard(payload []byte) (*shardMsg, error) {
	d := &decoder{data: payload}
	m := &shardMsg{JobID: d.u64(), Shard: d.u32(), Lo: d.u32(), Hi: d.u32()}
	return m, d.finish()
}

func (m *resultMsg) encode() []byte {
	var e encoder
	e.u64(m.JobID)
	e.u32(m.Shard)
	e.u8(uint8(m.Kind))
	e.u32(m.Lo)
	e.u32(m.Hi)
	switch m.Kind {
	case KindDetect:
		e.u32(uint32(len(m.DetBy)))
		for _, v := range m.DetBy {
			e.i32(v)
		}
	case KindDictionary:
		e.u32(uint32(len(m.Rows)))
		for _, r := range m.Rows {
			e.u32(r.Fi)
			e.u32(r.Po)
			for _, w := range r.Words {
				e.u64(w)
			}
		}
	}
	return e.buf.Bytes()
}

func decodeResult(payload []byte) (*resultMsg, error) {
	d := &decoder{data: payload}
	m := &resultMsg{
		JobID: d.u64(),
		Shard: d.u32(),
		Kind:  JobKind(d.u8()),
		Lo:    d.u32(),
		Hi:    d.u32(),
	}
	if d.err != nil {
		return nil, d.err
	}
	span := int(m.Hi) - int(m.Lo)
	if span < 0 {
		return nil, fmt.Errorf("%w: result range [%d,%d)", ErrMalformed, m.Lo, m.Hi)
	}
	switch m.Kind {
	case KindDetect:
		n := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if n != span || n*4 > len(payload) {
			return nil, fmt.Errorf("%w: detect result count %d for range [%d,%d)", ErrMalformed, n, m.Lo, m.Hi)
		}
		m.DetBy = make([]int32, n)
		for i := range m.DetBy {
			m.DetBy[i] = d.i32()
		}
	case KindDictionary:
		n := int(d.u32())
		if d.err != nil {
			return nil, d.err
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
			m.Rows[i].Fi = d.u32()
			m.Rows[i].Po = d.u32()
			m.Rows[i].Words, backing = backing[:span:span], backing[span:]
			for w := 0; w < span; w++ {
				m.Rows[i].Words[w] = d.u64()
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown result kind %d", ErrMalformed, m.Kind)
	}
	return m, d.finish()
}

func (m *errorMsg) encode() []byte {
	var e encoder
	e.u64(m.JobID)
	e.u32(m.Shard)
	e.str(m.Msg)
	return e.buf.Bytes()
}

func decodeError(payload []byte) (*errorMsg, error) {
	d := &decoder{data: payload}
	m := &errorMsg{JobID: d.u64(), Shard: d.u32(), Msg: d.str()}
	return m, d.finish()
}

func (m *doneMsg) encode() []byte {
	var e encoder
	e.u64(m.JobID)
	return e.buf.Bytes()
}

func decodeDone(payload []byte) (*doneMsg, error) {
	d := &decoder{data: payload}
	m := &doneMsg{JobID: d.u64()}
	return m, d.finish()
}

// encodeSetup builds the setup payload for a job over the given netlist,
// patterns and faults. The netlist travels in its canonical binary encoding
// (circuit.MarshalBinary), whose round trip preserves gate IDs and PI/PO
// order exactly — the property that lets coordinator and workers index one
// another's fault lists and signature rows without any mapping.
func encodeSetup(jobID uint64, kind JobKind, words int, n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault) ([]byte, [32]byte, error) {
	netBytes, err := n.MarshalBinary()
	if err != nil {
		return nil, [32]byte{}, err
	}
	netHash := sha256.Sum256(netBytes)
	m := &setupMsg{
		JobID:    jobID,
		Kind:     kind,
		Words:    uint8(words),
		NetBytes: netBytes,
		NetHash:  netHash,
		Inputs:   p.Inputs,
		NPat:     p.N,
		PatBits:  p.Bits,
		Faults:   faults,
	}
	return m.encode(), netHash, nil
}

// hashJobInputs digests the job inputs the circuit hash does not cover —
// the pattern bits and the explicit fault list — so a journal header can
// pin a job to its exact inputs, not just its circuit.
func hashJobInputs(p *logic.PatternSet, faults []fault.Fault) [32]byte {
	h := sha256.New()
	var b [8]byte
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(b[:4], v)
		h.Write(b[:4])
	}
	put32(uint32(p.Inputs))
	put32(uint32(p.N))
	for _, row := range p.Bits {
		for _, w := range row {
			binary.BigEndian.PutUint64(b[:], uint64(w))
			h.Write(b[:])
		}
	}
	put32(uint32(len(faults)))
	for _, f := range faults {
		put32(uint32(f.Gate))
		put32(uint32(int32(f.Pin)))
		h.Write([]byte{f.SA})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
