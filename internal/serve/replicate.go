package serve

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Registry replication: a serve node exposes its content-addressed
// artifact store over a small framed TCP protocol, and a replica converges
// by diffing manifests and pulling only the hashes it is missing. Every
// pulled artifact is verified twice before install — the frame carries a
// sha256 over the bytes in flight (wire.Proto), and the artifact itself
// embeds the SHA-256 content hash of its body — so neither a corrupted
// link nor a corrupted (or lying) peer can install wrong bytes: the worst
// outcome is a typed refusal.
//
// The protocol reuses the cluster wire framing (magic/version/type/
// BE-length/sha256) under its own magic, so a replication client dialing a
// cluster port (or vice versa) fails immediately with ErrBadMagic instead
// of misparsing frames.
//
// Frames:
//
//	manifestReq  ->  (empty payload)
//	manifest     <-  u32 count, then per entry: str kind, str name,
//	                 u32 version, str hash   (sorted, canonical)
//	fetch        ->  str hash
//	artifact     <-  raw itr-model/v3 file bytes (EncodeV2)
//	errReply     <-  str message
const (
	repMagic   = "ITRS"
	repVersion = 1

	repManifestReq = 1
	repManifest    = 2
	repFetch       = 3
	repArtifact    = 4
	repErrReply    = 5
)

// repProto is the replication wire protocol instance.
var repProto = wire.Proto{Magic: repMagic, Version: repVersion}

// ErrReplication marks a protocol-level replication failure (unexpected
// frame, peer-reported error, unknown hash).
var ErrReplication = errors.New("serve: replication protocol error")

// encodeManifest appends the canonical manifest payload.
func encodeManifest(entries []ModelMeta) []byte {
	b := wire.AppendU32(nil, uint32(len(entries)))
	for _, e := range entries {
		b = wire.AppendString(b, e.Kind)
		b = wire.AppendString(b, e.Name)
		b = wire.AppendU32(b, uint32(e.Version))
		b = wire.AppendString(b, e.Hash)
	}
	return b
}

// decodeManifest parses a manifest payload.
func decodeManifest(data []byte) ([]ModelMeta, error) {
	d := wire.NewDec(data)
	n := d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	entries := make([]ModelMeta, 0, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		var e ModelMeta
		e.Kind = d.String()
		e.Name = d.String()
		e.Version = int(d.U32())
		e.Hash = d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return entries, nil
}

// RepServer serves a registry's artifact store to replicas.
type RepServer struct {
	reg *Registry
	ln  net.Listener
	log *slog.Logger

	// CorruptNth is a test/chaos hook: if > 0, the Nth artifact served
	// (1-based, counted across all connections) has the byte at
	// CorruptOffset flipped after encoding but before framing (negative
	// offsets count from the end; out-of-range clamps to the last byte).
	// The frame checksum is computed over the corrupted bytes, so only
	// the embedded content hash can catch it — exactly the failure mode
	// content addressing exists for. Set before Serve; not synchronized
	// with mutation.
	CorruptNth    int64
	CorruptOffset int
	served        atomic.Int64

	mu     sync.Mutex
	closed bool
}

// NewRepServer listens on addr (e.g. "127.0.0.1:0") and serves reg's
// artifact store. Call Serve (usually in a goroutine) to accept replicas.
// A nil logger disables logging.
func NewRepServer(reg *Registry, addr string, log *slog.Logger) (*RepServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &RepServer{reg: reg, ln: ln, log: log}, nil
}

// Addr returns the bound listen address.
func (s *RepServer) Addr() string { return s.ln.Addr().String() }

// Serve accepts replica connections until the server is closed.
func (s *RepServer) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.handle(conn)
	}
}

// Close stops accepting replicas. Idempotent.
func (s *RepServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.ln.Close()
}

// handle answers one replica's frames until it disconnects.
func (s *RepServer) handle(conn net.Conn) {
	defer conn.Close()
	for {
		t, payload, err := repProto.ReadFrame(conn, wire.DefaultMaxFrame)
		if err != nil {
			if s.log != nil && err != io.EOF {
				s.log.Warn("replication: bad frame", slog.String("peer", conn.RemoteAddr().String()),
					slog.String("err", err.Error()))
			}
			return
		}
		switch t {
		case repManifestReq:
			err = repProto.WriteFrame(conn, repManifest, encodeManifest(s.reg.Manifest()))
		case repFetch:
			err = s.serveFetch(conn, payload)
		default:
			err = repProto.WriteFrame(conn, repErrReply,
				wire.AppendString(nil, fmt.Sprintf("unexpected frame type %d", t)))
		}
		if err != nil {
			return
		}
	}
}

// serveFetch answers one fetch frame with the requested artifact (or a
// peer error if the hash is unknown), applying the corruption hook.
func (s *RepServer) serveFetch(conn net.Conn, payload []byte) error {
	d := wire.NewDec(payload)
	hash := d.String()
	if err := d.Close(); err != nil {
		return repProto.WriteFrame(conn, repErrReply, wire.AppendString(nil, "malformed fetch"))
	}
	a := s.reg.ArtifactByHash(hash)
	if a == nil {
		return repProto.WriteFrame(conn, repErrReply,
			wire.AppendString(nil, fmt.Sprintf("unknown artifact hash %.12s", hash)))
	}
	data, err := a.EncodeV2()
	if err != nil {
		return repProto.WriteFrame(conn, repErrReply, wire.AppendString(nil, err.Error()))
	}
	if n := s.served.Add(1); s.CorruptNth > 0 && n == s.CorruptNth {
		off := s.CorruptOffset
		if off < 0 {
			off += len(data)
		}
		if off < 0 || off >= len(data) {
			off = len(data) - 1
		}
		data[off] ^= 0x40
		if s.log != nil {
			s.log.Warn("replication: corrupting served artifact (chaos hook)",
				slog.String("hash", hash[:12]), slog.Int("offset", off))
		}
	}
	return repProto.WriteFrame(conn, repArtifact, data)
}

// RepReport summarizes one ReplicateFrom run.
type RepReport struct {
	// Remote is the peer's manifest as received.
	Remote []ModelMeta
	// Pulled lists the artifacts fetched, verified and installed.
	Pulled []ModelMeta
	// AlreadyHad counts remote entries whose hash was already in the
	// local store (nothing fetched).
	AlreadyHad int
	// Skipped lists "kind/name/vN: reason" for entries that could not be
	// installed (e.g. a downgrade below the live version).
	Skipped []string
}

// ReplicateFrom dials a RepServer, diffs its manifest against the local
// registry's content store, and pulls every hash the replica is missing.
// Each pulled artifact must decode as a valid itr-model/v3 file whose body
// matches its embedded content hash AND whose hash equals the one
// requested; anything else — a flipped byte in flight, a corrupted store,
// a peer serving the wrong content under a hash — is refused with a typed
// error and nothing is installed from that reply. Verified artifacts
// install through the ordinary hot-swap path (lineage and downgrade rules
// included) and, when dir is non-empty, persist there as .itm files so a
// restart reloads them without re-syncing.
func ReplicateFrom(addr string, reg *Registry, dir string, timeout time.Duration) (RepReport, error) {
	var rep RepReport
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return rep, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))

	if err := repProto.WriteFrame(conn, repManifestReq, nil); err != nil {
		return rep, err
	}
	t, payload, err := repProto.ReadFrame(conn, wire.DefaultMaxFrame)
	if err != nil {
		return rep, err
	}
	if t != repManifest {
		return rep, fmt.Errorf("%w: expected manifest, got frame type %d", ErrReplication, t)
	}
	remote, err := decodeManifest(payload)
	if err != nil {
		return rep, fmt.Errorf("%w: bad manifest: %v", ErrReplication, err)
	}
	rep.Remote = remote

	have := map[string]bool{}
	for _, m := range reg.Manifest() {
		have[m.Hash] = true
	}
	// Pull in manifest order (kind, name, ascending version): installing
	// versions oldest-first keeps the per-version lineage intact without
	// tripping the downgrade guard on the way up.
	sort.Slice(remote, func(i, j int) bool {
		a, b := remote[i], remote[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Version < b.Version
	})
	for _, want := range remote {
		if have[want.Hash] {
			rep.AlreadyHad++
			continue
		}
		conn.SetDeadline(time.Now().Add(timeout))
		if err := repProto.WriteFrame(conn, repFetch, wire.AppendString(nil, want.Hash)); err != nil {
			return rep, err
		}
		t, payload, err := repProto.ReadFrame(conn, wire.DefaultMaxFrame)
		if err != nil {
			return rep, err
		}
		switch t {
		case repArtifact:
		case repErrReply:
			d := wire.NewDec(payload)
			msg := d.String()
			return rep, fmt.Errorf("%w: peer: %s", ErrReplication, msg)
		default:
			return rep, fmt.Errorf("%w: expected artifact, got frame type %d", ErrReplication, t)
		}
		a, err := DecodeArtifactV2(payload)
		if err != nil {
			return rep, fmt.Errorf("replicate %s/%s/v%d from %s: %w",
				want.Kind, want.Name, want.Version, addr, err)
		}
		if a.Hash != want.Hash {
			return rep, fmt.Errorf("%w: requested %.12s…, peer sent content %.12s…",
				ErrHashMismatch, want.Hash, a.Hash)
		}
		if _, err := reg.Install(a); err != nil {
			rep.Skipped = append(rep.Skipped,
				fmt.Sprintf("%s: %v", lineageKey(want.Kind, want.Name, want.Version), err))
			continue
		}
		if dir != "" {
			name := fmt.Sprintf("%s-%s-v%d.itm", a.Kind, a.Name, a.Version)
			if err := a.WriteFile(filepath.Join(dir, name)); err != nil {
				return rep, fmt.Errorf("replicate: persist %s: %w", name, err)
			}
		}
		rep.Pulled = append(rep.Pulled, ModelMeta{
			Kind: a.Kind, Name: a.Name, Version: a.Version, Hash: a.Hash,
		})
		have[a.Hash] = true
	}
	return rep, nil
}
