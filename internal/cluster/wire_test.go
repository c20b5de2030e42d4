package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/wire"
)

// TestFrameRoundTrip pins the framing: every frame type and a spread of
// payload sizes survive a write/read cycle, consecutive frames stay
// delimited, and a clean close at a frame boundary reads as bare io.EOF.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []FrameType{FrameHello, FrameSetup, FrameShard, FrameResult, FrameDone, FrameError, FrameSetupReply, FrameNetlist}
	sizes := []int{0, 1, 41, 42, 4096, 7, 100, 65536}
	var buf bytes.Buffer
	var want [][]byte
	for i, sz := range sizes {
		p := make([]byte, sz)
		rng.Read(p)
		want = append(want, p)
		if err := WriteFrame(&buf, types[i%len(types)], p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i := range sizes {
		ft, p, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != types[i%len(types)] {
			t.Errorf("frame %d: type %v, want %v", i, ft, types[i%len(types)])
		}
		if !bytes.Equal(p, want[i]) {
			t.Errorf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Errorf("at boundary: err = %v, want io.EOF", err)
	}
}

// TestFrameCorruptionTyped pins the typed-error classification of every way
// a frame can arrive damaged: bad magic, wrong version, oversize length,
// flipped payload or hash bits, and truncation at any byte offset.
func TestFrameCorruptionTyped(t *testing.T) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameResult, payload); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), frame...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		max  uint32
		want error
	}{
		{"bad magic", mutate(func(b []byte) { b[0] ^= 0xff }), 0, wire.ErrBadMagic},
		{"bad version", mutate(func(b []byte) { b[4] ^= 0x01 }), 0, wire.ErrVersion},
		{"oversize length", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[6:10], 4096) }), 1024, wire.ErrFrameTooBig},
		{"payload bit flip", mutate(func(b []byte) { b[wire.HeaderSize] ^= 0x01 }), 0, wire.ErrPayloadHash},
		{"hash bit flip", mutate(func(b []byte) { b[10] ^= 0x01 }), 0, wire.ErrPayloadHash},
		{"length shrunk", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[6:10], 8) }), 0, wire.ErrPayloadHash},
	}
	for _, tc := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(tc.data), tc.max); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	for cut := 0; cut < len(frame); cut += 7 {
		_, _, err := ReadFrame(bytes.NewReader(frame[:cut]), 0)
		if cut == 0 {
			if err != io.EOF {
				t.Errorf("cut at 0: err = %v, want io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want wire.ErrTruncated", cut, err)
		}
	}
}

// TestMessageRoundTrips pins every message codec, including the setup and
// netlist frames built from a real netlist/pattern/fault triple.
func TestMessageRoundTrips(t *testing.T) {
	h := &helloMsg{Proto: WireVersion, ID: "worker-7"}
	if got, err := decodeHello(h.encode()); err != nil || *got != *h {
		t.Errorf("hello: got %+v err %v", got, err)
	}
	s := &shardMsg{JobID: 9, Shard: 3, Lo: 64, Hi: 128}
	if got, err := decodeShard(s.encode()); err != nil || *got != *s {
		t.Errorf("shard: got %+v err %v", got, err)
	}
	e := &errorMsg{JobID: 9, Shard: 3, Msg: "worker engine panic"}
	if got, err := decodeError(e.encode()); err != nil || *got != *e {
		t.Errorf("error: got %+v err %v", got, err)
	}
	for _, r := range []setupReplyMsg{
		{JobID: 9, Status: setupReady},
		{JobID: 9, Status: setupNeedNet},
		{JobID: 9, Status: setupRefused, Msg: "refused"},
	} {
		if got, err := decodeSetupReply(r.encode()); err != nil || *got != r {
			t.Errorf("setup reply: got %+v err %v, want %+v", got, err, r)
		}
	}
	if _, err := decodeSetupReply((&setupReplyMsg{JobID: 9, Status: setupRefused + 1}).encode()); !errors.Is(err, ErrMalformed) {
		t.Errorf("setup reply with unknown status: err = %v, want ErrMalformed", err)
	}

	det := &resultMsg{JobID: 1, Shard: 0, Kind: KindDetect, Lo: 10, Hi: 13, DetBy: []int32{-1, 7, 0}}
	got, err := decodeResult(det.encode())
	if err != nil {
		t.Fatalf("detect result: %v", err)
	}
	if got.JobID != det.JobID || got.Kind != det.Kind || len(got.DetBy) != 3 || got.DetBy[0] != -1 || got.DetBy[1] != 7 {
		t.Errorf("detect result: got %+v", got)
	}

	dict := &resultMsg{JobID: 2, Shard: 1, Kind: KindDictionary, Lo: 8, Hi: 10, Rows: []sigEntry{
		{Fi: 4, Po: 0, Words: []logic.Word{0xdead, 0xbeef}},
		{Fi: 9, Po: 2, Words: []logic.Word{1, 0}},
	}}
	got, err = decodeResult(dict.encode())
	if err != nil {
		t.Fatalf("dictionary result: %v", err)
	}
	if len(got.Rows) != 2 || got.Rows[0].Fi != 4 || got.Rows[0].Words[1] != 0xbeef || got.Rows[1].Po != 2 {
		t.Errorf("dictionary result: got %+v", got)
	}

	n := circuit.RippleAdder(2)
	p := logic.NewPatternSet(len(n.PIs), 70)
	rng := rand.New(rand.NewSource(2))
	p.RandFill(rng.Uint64)
	faults := fault.Universe(n)
	m, err := decodeSetup(mustSetup(t, 11, KindDictionary, 4, n, p, faults))
	if err != nil {
		t.Fatal(err)
	}
	if m.JobID != 11 || m.Kind != KindDictionary || m.Words != 4 || m.Inputs != p.Inputs || m.NPat != p.N {
		t.Errorf("setup header: %+v", m)
	}
	if h, _ := n.ContentHash(); m.NetHash != h {
		t.Error("setup: netlist hash mismatch")
	}
	nb, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	nm, err := decodeNetlist((&netlistMsg{JobID: 11, NetBytes: nb}).encode())
	if err != nil || nm.JobID != 11 || !bytes.Equal(nm.NetBytes, nb) {
		t.Errorf("netlist: job %d, %d bytes, err %v", nm.JobID, len(nm.NetBytes), err)
	}
	if len(m.Faults) != len(faults) || m.Faults[3] != faults[3] {
		t.Error("setup: fault list mismatch")
	}
	for i := range p.Bits {
		for w := range p.Bits[i] {
			if m.PatBits[i][w] != p.Bits[i][w] {
				t.Fatalf("setup: pattern bits differ at input %d word %d", i, w)
			}
		}
	}
}

// TestMessageTrailingBytes pins exact-consumption decoding: any trailing
// garbage after a well-formed message is ErrMalformed, not silently ignored.
func TestMessageTrailingBytes(t *testing.T) {
	s := &shardMsg{JobID: 1, Shard: 2, Lo: 0, Hi: 8}
	if _, err := decodeShard(append(s.encode(), 0x00)); !errors.Is(err, ErrMalformed) {
		t.Errorf("shard trailing byte: err = %v, want ErrMalformed", err)
	}
	if _, err := decodeHello(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty hello: err = %v, want ErrMalformed", err)
	}
	det := &resultMsg{JobID: 1, Kind: KindDetect, Lo: 0, Hi: 2, DetBy: []int32{1, 2}}
	if _, err := decodeResult(det.encode()[:10]); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated result: err = %v, want ErrMalformed", err)
	}
}

// overflowResult is a 25-byte dictionary result whose header claims
// Lo=0, Hi=2^30-1 and 2^31 rows: rows × (8 + span×8) bytes wraps to 0 in
// 64-bit int arithmetic, so a product-based size check would pass and the
// decoder would try to allocate 2^31 rows.
var overflowResult = []byte{
	0, 0, 0, 0, 0, 0, 0, 1, // JobID
	0, 0, 0, 0, // Shard
	byte(KindDictionary),
	0, 0, 0, 0, // Lo
	0x3f, 0xff, 0xff, 0xff, // Hi = 2^30-1
	0x80, 0, 0, 0, // rows = 2^31
}

// TestDecodeResultSizeOverflow pins the allocation guard of the dictionary
// result decoder: a header whose claimed size overflows must be rejected
// as ErrMalformed before anything is allocated.
func TestDecodeResultSizeOverflow(t *testing.T) {
	if len(overflowResult) != 25 {
		t.Fatalf("payload is %d bytes, want 25", len(overflowResult))
	}
	if _, err := decodeResult(overflowResult); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

// encoder assembles hand-made payloads for the decoder hardening tests,
// writing through the same wire appenders the message encoders use.
type encoder struct {
	buf bytes.Buffer
}

func (e *encoder) u8(v uint8)     { e.buf.WriteByte(v) }
func (e *encoder) u16(v uint16)   { e.buf.Write(wire.AppendU16(nil, v)) }
func (e *encoder) u32(v uint32)   { e.buf.Write(wire.AppendU32(nil, v)) }
func (e *encoder) u64(v uint64)   { e.buf.Write(wire.AppendU64(nil, v)) }
func (e *encoder) bytes(b []byte) { e.buf.Write(wire.AppendBytes(nil, b)) }

// TestDecodeAllocationBounded pins that a length or count field cannot
// size an allocation the payload does not back: each short payload below
// claims tens of megabytes and must be refused after allocating far less.
func TestDecodeAllocationBounded(t *testing.T) {
	var hello encoder
	hello.u16(WireVersion)
	hello.u32(1 << 26) // ID length
	hello.buf.WriteString("x")
	var setup encoder
	setup.u64(1)
	setup.u8(uint8(KindDetect))
	setup.u8(1)
	setup.buf.Write(make([]byte, 32)) // NetHash
	setup.u32(1 << 24)                // Inputs, with no patterns to back them
	setup.u32(0)                      // NPat
	setup.u32(0)                      // fault count
	var reply encoder
	reply.u64(1)
	reply.u8(uint8(setupRefused))
	reply.u32(1 << 26) // Msg length
	reply.buf.WriteString("x")
	var netlist encoder
	netlist.u64(1)
	netlist.u32(1 << 26) // netlist length
	netlist.buf.WriteString("ITRN")
	for name, decode := range map[string]func() error{
		"hello ID length":    func() error { _, err := decodeHello(hello.buf.Bytes()); return err },
		"setup inputs":       func() error { _, err := decodeSetup(setup.buf.Bytes()); return err },
		"setup reply length": func() error { _, err := decodeSetupReply(reply.buf.Bytes()); return err },
		"netlist length":     func() error { _, err := decodeNetlist(netlist.buf.Bytes()); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", name, d)
		}
	}
}

// FuzzClusterMessages feeds arbitrary payloads to every cluster message
// decoder. No input may panic or exhaust memory, and every payload a
// decoder accepts must re-encode to the same bytes.
func FuzzClusterMessages(f *testing.F) {
	n := circuit.RippleAdder(2)
	p := logic.NewPatternSet(len(n.PIs), 70)
	p.RandFill(rand.New(rand.NewSource(2)).Uint64)
	setup := mustSetup(f, 11, KindDetect, 2, n, p, fault.Universe(n))
	nb, err := n.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		(&helloMsg{Proto: WireVersion, ID: "worker-7"}).encode(),
		setup,
		(&shardMsg{JobID: 9, Shard: 3, Lo: 64, Hi: 128}).encode(),
		(&resultMsg{JobID: 1, Kind: KindDetect, Lo: 10, Hi: 13, DetBy: []int32{-1, 7, 0}}).encode(),
		(&resultMsg{JobID: 2, Shard: 1, Kind: KindDictionary, Lo: 8, Hi: 10, Rows: []sigEntry{
			{Fi: 4, Po: 0, Words: []logic.Word{0xdead, 0xbeef}},
		}}).encode(),
		(&errorMsg{JobID: 9, Shard: 3, Msg: "refused"}).encode(),
		(&doneMsg{JobID: 5}).encode(),
		(&setupReplyMsg{JobID: 11, Status: setupNeedNet}).encode(),
		(&setupReplyMsg{JobID: 11, Status: setupRefused, Msg: "netlist content hash mismatch"}).encode(),
		(&netlistMsg{JobID: 11, NetBytes: nb}).encode(),
		overflowResult,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip := func(name string, encode func() []byte) {
			if again := encode(); !bytes.Equal(again, data) {
				t.Fatalf("%s: accepted %x but re-encodes to %x", name, data, again)
			}
		}
		if m, err := decodeHello(data); err == nil {
			roundTrip("hello", m.encode)
		}
		if m, err := decodeSetup(data); err == nil {
			roundTrip("setup", m.encode)
		}
		if m, err := decodeShard(data); err == nil {
			roundTrip("shard", m.encode)
		}
		if m, err := decodeResult(data); err == nil {
			roundTrip("result", m.encode)
		}
		if m, err := decodeError(data); err == nil {
			roundTrip("error", m.encode)
		}
		if m, err := decodeSetupReply(data); err == nil {
			roundTrip("setup reply", m.encode)
		}
		if m, err := decodeNetlist(data); err == nil {
			roundTrip("netlist", m.encode)
		}
	})
}

// TestLoopbackTransport pins the in-process listener: dialed pairs carry
// frames both ways, and Close turns both Accept and Dial into typed errors.
func TestLoopbackTransport(t *testing.T) {
	lb := NewLoopback()
	done := make(chan error, 1)
	go func() {
		conn, err := lb.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		ft, p, err := ReadFrame(conn, 0)
		if err != nil || ft != FrameHello {
			done <- err
			return
		}
		done <- WriteFrame(conn, FrameDone, p)
	}()
	conn, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, FrameHello, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	ft, p, err := ReadFrame(conn, 0)
	if err != nil || ft != FrameDone || string(p) != "ping" {
		t.Fatalf("echo: ft=%v p=%q err=%v", ft, p, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	conn.Close()
	lb.Close()
	lb.Close() // idempotent
	if _, err := lb.Accept(); !errors.Is(err, ErrLoopbackClosed) {
		t.Errorf("Accept after close: %v", err)
	}
	if _, err := lb.Dial(); !errors.Is(err, ErrLoopbackClosed) {
		t.Errorf("Dial after close: %v", err)
	}
}
