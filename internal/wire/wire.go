// Package wire is the shared binary transport substrate of the repository:
// length-prefixed frames with per-frame content hashing (the framing of the
// cluster protocol and the coordinator journal), and a canonical binary
// codec for deterministic model serialization (fixed field order,
// big-endian fixed-width scalars, length-prefixed sections — no map
// iteration anywhere), so that SHA-256 over canonical bytes can serve as an
// artifact's identity.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame format, transhift-style explicit framing with easyfl-style content
// hashing: a fixed header carries a protocol magic, the protocol version,
// the frame type, the big-endian payload length and the sha256 of the
// payload. The hash makes payload corruption (truncation, bit rot,
// desynced streams) a typed error at the frame boundary instead of a
// garbage decode downstream.
//
//	offset  size  field
//	0       4     protocol magic
//	4       1     protocol version
//	5       1     frame type
//	6       4     payload length (big-endian)
//	10      32    sha256(payload)
//	42      n     payload
const (
	// HeaderSize is the fixed frame header length.
	HeaderSize = 4 + 1 + 1 + 4 + sha256.Size

	// DefaultMaxFrame bounds a single frame's payload: large enough for a
	// million-gate setup frame or a dense dictionary shard, small enough
	// that a corrupt length field cannot trigger a runaway allocation.
	DefaultMaxFrame = 1 << 28
)

// Typed wire errors. Everything a peer can get wrong on the wire maps to
// exactly one of these (possibly wrapped with context), so failure-path
// tests can pin the classification with errors.Is.
var (
	ErrBadMagic    = errors.New("wire: bad frame magic")
	ErrVersion     = errors.New("wire: frame protocol version mismatch")
	ErrFrameTooBig = errors.New("wire: frame exceeds size limit")
	ErrPayloadHash = errors.New("wire: frame payload hash mismatch")
	ErrTruncated   = errors.New("wire: truncated frame")
)

// Proto identifies one framed protocol: a 4-byte magic and a version byte.
// Protocols sharing the frame layout stay mutually unintelligible through
// their magics.
type Proto struct {
	Magic   string // exactly 4 bytes
	Version byte
}

// WriteFrame writes one framed message: header (magic, version, type,
// length, payload hash) followed by the payload.
func (p Proto) WriteFrame(w io.Writer, t uint8, payload []byte) error {
	if len(p.Magic) != 4 {
		return fmt.Errorf("wire: protocol magic %q is not 4 bytes", p.Magic)
	}
	hdr := make([]byte, HeaderSize, HeaderSize+len(payload))
	copy(hdr, p.Magic)
	hdr[4] = p.Version
	hdr[5] = t
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[10:], sum[:])
	// One Write call for header+payload: a frame is either fully queued to
	// the transport or fails as a unit, which keeps the failure model
	// simple (a short write is a broken connection, not a desynced stream).
	_, err := w.Write(append(hdr, payload...))
	return err
}

// ReadFrame reads and verifies one framed message. maxFrame bounds the
// payload length accepted (0 selects DefaultMaxFrame). Errors are typed:
// ErrBadMagic, ErrVersion, ErrFrameTooBig, ErrPayloadHash, or ErrTruncated
// for short reads; io.EOF is returned untouched only for a clean EOF at a
// frame boundary, so callers can distinguish orderly close from mid-frame
// loss.
func (p Proto) ReadFrame(r io.Reader, maxFrame uint32) (uint8, []byte, error) {
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if string(hdr[:4]) != p.Magic {
		return 0, nil, ErrBadMagic
	}
	if hdr[4] != p.Version {
		return 0, nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, hdr[4], p.Version)
	}
	t := hdr[5]
	n := binary.BigEndian.Uint32(hdr[6:10])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes > limit %d", ErrFrameTooBig, n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	if sum := sha256.Sum256(payload); sum != [sha256.Size]byte(hdr[10:42]) {
		return 0, nil, ErrPayloadHash
	}
	return t, payload, nil
}
