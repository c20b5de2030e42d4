// Package cluster distributes PPSFP fault simulation and fault-dictionary
// construction across worker nodes. A coordinator compiles the circuit
// once, partitions the job into shards — contiguous fault ranges for
// detection runs, disjoint pattern-word column ranges for dictionary
// builds — and dispatches them to workers over a length-prefixed binary
// wire protocol with a content hash per frame. Workers run the existing
// single-process engines (fault.Simulator) on their shard and stream
// partial results back; the coordinator merge writes disjoint output
// regions, so the assembled result is bit-identical to the serial engine
// for any worker count, shard size, dispatch order or failure schedule.
//
// Robustness is part of the protocol: per-shard deadlines re-dispatch
// stragglers (the first result wins and duplicates are discarded
// idempotently), workers join and leave freely with reconnect backoff, and
// every wire-level failure surfaces as a typed error followed by
// re-dispatch — never a hang and never a corrupt merge. The Loopback
// transport runs the full protocol over in-process pipes, so everything is
// unit-testable without sockets.
package cluster

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// The frame layout (magic, version, type, big-endian length, sha256 of the
// payload), its size bound (wire.DefaultMaxFrame) and its typed frame
// errors live in internal/wire; this file keeps the cluster protocol's
// identity — its magic, version and frame-type vocabulary — plus the
// cluster's own message-level errors.
const (
	wireMagic   = "ITRC"
	WireVersion = 1
)

// proto is the cluster job-dispatch protocol instance.
var proto = wire.Proto{Magic: wireMagic, Version: WireVersion}

// FrameType discriminates the protocol's message kinds.
type FrameType uint8

// Protocol frame types. The coordinator sends Setup, Shard and Done; the
// worker sends Hello, Result and Error.
const (
	FrameHello  FrameType = 1 // worker → coordinator: join handshake
	FrameSetup  FrameType = 2 // coordinator → worker: job definition (circuit, patterns, faults)
	FrameShard  FrameType = 3 // coordinator → worker: one work unit
	FrameResult FrameType = 4 // worker → coordinator: one shard's partial result
	FrameDone   FrameType = 5 // coordinator → worker: job complete, await next Setup
	FrameError  FrameType = 6 // worker → coordinator: typed shard/setup failure
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameSetup:
		return "setup"
	case FrameShard:
		return "shard"
	case FrameResult:
		return "result"
	case FrameDone:
		return "done"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Typed protocol errors. Everything a peer can get wrong maps to exactly
// one of these or one of the frame-level wire errors (wire.ErrBadMagic,
// wire.ErrVersion, wire.ErrFrameTooBig, wire.ErrPayloadHash,
// wire.ErrTruncated), possibly wrapped with context, so failure-path tests
// can pin the classification with errors.Is.
var (
	ErrMalformed    = errors.New("cluster: malformed message payload")
	ErrJobMismatch  = errors.New("cluster: message for a different job")
	ErrProtocol     = errors.New("cluster: unexpected frame type")
	ErrClosed       = errors.New("cluster: coordinator closed")
	ErrWorkerFailed = errors.New("cluster: worker reported shard failure")
)

// WriteFrame writes one framed message: header (magic, version, type,
// length, payload hash) followed by the payload.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	return proto.WriteFrame(w, uint8(t), payload)
}

// ReadFrame reads and verifies one framed message. maxFrame bounds the
// payload length accepted (0 selects wire.DefaultMaxFrame). Errors are
// typed: wire.ErrBadMagic, wire.ErrVersion, wire.ErrFrameTooBig,
// wire.ErrPayloadHash, or wire.ErrTruncated for short reads; io.EOF is
// returned untouched only for a clean EOF at a frame boundary, so callers
// can distinguish orderly close from mid-frame loss.
func ReadFrame(r io.Reader, maxFrame uint32) (FrameType, []byte, error) {
	t, payload, err := proto.ReadFrame(r, maxFrame)
	return FrameType(t), payload, err
}
