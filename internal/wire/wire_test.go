package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

var testProto = Proto{Magic: "TEST", Version: 3}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 1000)}
	for i, p := range payloads {
		if err := testProto.WriteFrame(&buf, uint8(i+1), p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		ft, p, err := testProto.ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if ft != uint8(i+1) || !bytes.Equal(p, want) {
			t.Errorf("frame %d: type %d payload %d bytes, want type %d payload %d bytes",
				i, ft, len(p), i+1, len(want))
		}
	}
	if _, _, err := testProto.ReadFrame(&buf, 0); err != io.EOF {
		t.Errorf("clean EOF at frame boundary: err = %v, want io.EOF", err)
	}
}

func TestFrameTypedErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := testProto.WriteFrame(&buf, 1, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	mutate := func(f func([]byte)) []byte {
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
		{"bad magic", mutate(func(b []byte) { b[0] ^= 0xff }), 0, ErrBadMagic},
		{"bad version", mutate(func(b []byte) { b[4] ^= 0x01 }), 0, ErrVersion},
		{"oversize length", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[6:10], 4096) }), 64, ErrFrameTooBig},
		{"payload bit flip", mutate(func(b []byte) { b[HeaderSize] ^= 0x01 }), 0, ErrPayloadHash},
		{"hash bit flip", mutate(func(b []byte) { b[10] ^= 0x01 }), 0, ErrPayloadHash},
		{"length shrunk", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[6:10], 4) }), 0, ErrPayloadHash},
	}
	for _, tc := range cases {
		if _, _, err := testProto.ReadFrame(bytes.NewReader(tc.data), tc.max); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	for cut := 1; cut < len(frame); cut++ {
		_, _, err := testProto.ReadFrame(bytes.NewReader(frame[:cut]), 0)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestProtoIsolation: frames of one protocol must be unreadable under
// another protocol's magic or version — the property that keeps two
// protocols sharing the frame layout from ever decoding each other's
// traffic.
func TestProtoIsolation(t *testing.T) {
	var buf bytes.Buffer
	if err := testProto.WriteFrame(&buf, 1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	other := Proto{Magic: "OTHR", Version: 3}
	if _, _, err := other.ReadFrame(bytes.NewReader(frame), 0); !errors.Is(err, ErrBadMagic) {
		t.Errorf("foreign magic: err = %v, want ErrBadMagic", err)
	}
	v2 := Proto{Magic: "TEST", Version: 4}
	if _, _, err := v2.ReadFrame(bytes.NewReader(frame), 0); !errors.Is(err, ErrVersion) {
		t.Errorf("foreign version: err = %v, want ErrVersion", err)
	}
}

func TestWriteFrameBadMagic(t *testing.T) {
	bad := Proto{Magic: "LONGER", Version: 1}
	if err := bad.WriteFrame(io.Discard, 1, nil); err == nil {
		t.Error("5-byte magic accepted")
	}
}
