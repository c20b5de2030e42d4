package serve

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// primaryRegistry builds a registry holding the three fixture artifacts
// (two wafer versions + one outlier screen) and serves it for replication.
func primaryRegistry(t *testing.T) (*Registry, *RepServer) {
	t.Helper()
	w1, w2, o1 := testArtifacts(t)
	reg := NewRegistry()
	for _, a := range []*Artifact{w1, w2, o1} {
		if _, err := reg.Install(a); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewRepServer(reg, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return reg, srv
}

// TestReplicationConverges pins the acceptance criterion: a replica with
// an empty store pulls everything, ends with a manifest identical to the
// primary's, serves the same live models, and persists artifacts a
// restart can reload. A second sync is a no-op.
func TestReplicationConverges(t *testing.T) {
	primary, srv := primaryRegistry(t)
	replica := NewRegistry()
	dir := t.TempDir()

	rep, err := ReplicateFrom(srv.Addr(), replica, dir, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pulled) != 3 || rep.AlreadyHad != 0 || len(rep.Skipped) != 0 {
		t.Errorf("first sync %+v, want 3 pulled", rep)
	}
	if !reflect.DeepEqual(primary.Manifest(), replica.Manifest()) {
		t.Errorf("manifests diverge:\nprimary %+v\nreplica %+v", primary.Manifest(), replica.Manifest())
	}
	if !replica.Ready() {
		t.Fatal("replica not ready after sync")
	}
	if a, b := primary.Wafer().Meta, replica.Wafer().Meta; a != b {
		t.Errorf("live wafer model %+v, primary has %+v", b, a)
	}
	if a, b := primary.Outlier().Meta, replica.Outlier().Meta; a != b {
		t.Errorf("live outlier model %+v, primary has %+v", b, a)
	}

	// Idempotent re-sync: everything already present by hash.
	rep, err = ReplicateFrom(srv.Addr(), replica, dir, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pulled) != 0 || rep.AlreadyHad != 3 {
		t.Errorf("re-sync %+v, want 0 pulled, 3 already present", rep)
	}

	// The persisted .itm files alone rebuild an equivalent serving node:
	// LoadDir installs the newest version per kind, and the live models
	// carry the primary's content hashes.
	restarted := NewRegistry()
	sum, err := restarted.LoadDir(dir)
	if err != nil || sum.Installed != 2 || len(sum.Skipped) != 0 {
		t.Fatalf("reload of persisted artifacts: %+v, %v", sum, err)
	}
	if a, b := primary.Wafer().Meta, restarted.Wafer().Meta; a != b {
		t.Errorf("restarted wafer model %+v, primary has %+v", b, a)
	}
	if a, b := primary.Outlier().Meta, restarted.Outlier().Meta; a != b {
		t.Errorf("restarted outlier model %+v, primary has %+v", b, a)
	}
}

// TestReplicationRefusesCorruption: a byte flipped in flight — at the
// artifact header, inside the stored hash, or anywhere in the hashed body
// — is refused with a typed error and installs nothing. The server-side
// hook corrupts after encoding but before framing, so the frame checksum
// passes and only the embedded content hash stands between the replica
// and a wrong model. After the corruption clears, the same replica
// converges.
func TestReplicationRefusesCorruption(t *testing.T) {
	_, srv := primaryRegistry(t)
	// Offsets spanning the file: magic, format version, stored hash,
	// body header, and (via negative indexing) the payload tail.
	for _, off := range []int{0, 4, 5, 20, 37, 50, -1, -17} {
		srv.CorruptNth = srv.served.Load() + 1
		srv.CorruptOffset = off
		replica := NewRegistry()
		_, err := ReplicateFrom(srv.Addr(), replica, "", 10*time.Second)
		if err == nil {
			t.Fatalf("offset %d: corrupted artifact accepted", off)
		}
		if !errors.Is(err, ErrHashMismatch) && !errors.Is(err, ErrBadArtifact) {
			t.Errorf("offset %d: err = %v, want ErrHashMismatch or ErrBadArtifact", off, err)
		}
		if len(replica.Manifest()) != 0 {
			t.Errorf("offset %d: corrupted sync installed %+v", off, replica.Manifest())
		}
	}
	// Corruption cleared: the replica recovers on the next sync.
	srv.CorruptNth = 0
	replica := NewRegistry()
	rep, err := ReplicateFrom(srv.Addr(), replica, "", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pulled) != 3 || !replica.Ready() {
		t.Errorf("post-corruption sync %+v, replica ready=%v", rep, replica.Ready())
	}
}

// TestReplicationLyingPeer: a peer that serves a self-consistent artifact
// under the wrong hash (content and embedded hash agree, but it is not
// what was requested) is refused — the replica checks the artifact
// against the hash it asked for, not just against itself.
func TestReplicationLyingPeer(t *testing.T) {
	w1, _, o1 := testArtifacts(t)
	// A registry whose store maps w1's hash to the outlier artifact.
	reg := NewRegistry()
	if _, err := reg.Install(w1); err != nil {
		t.Fatal(err)
	}
	o2 := *o1
	reg.mu.Lock()
	reg.store[w1.Hash] = &o2
	reg.mu.Unlock()
	srv, err := NewRepServer(reg, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	replica := NewRegistry()
	_, err = ReplicateFrom(srv.Addr(), replica, "", 10*time.Second)
	if !errors.Is(err, ErrHashMismatch) {
		t.Errorf("lying peer: err = %v, want ErrHashMismatch", err)
	}
	if len(replica.Manifest()) != 0 {
		t.Errorf("lying peer installed %+v", replica.Manifest())
	}
}

// TestReplicationUnknownHash: fetching a hash the peer does not have is a
// typed error reply, not a hang or a panic, and an unexpected frame type
// is answered the same way.
func TestReplicationUnknownHash(t *testing.T) {
	_, srv := primaryRegistry(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := repProto.WriteFrame(conn, repFetch, wire.AppendString(nil, "no-such-hash")); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := repProto.ReadFrame(conn, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ft != repErrReply {
		t.Fatalf("frame type %d, want error reply", ft)
	}
	if len(payload) == 0 {
		t.Error("empty error reply")
	}
	// Unknown frame type: answered with an error reply too.
	if err := repProto.WriteFrame(conn, 99, nil); err != nil {
		t.Fatal(err)
	}
	if ft, _, err = repProto.ReadFrame(conn, 1<<20); err != nil || ft != repErrReply {
		t.Fatalf("unknown frame type: got frame %d, err %v; want error reply", ft, err)
	}
}

// FuzzManifest feeds arbitrary payloads to the replication manifest
// decoder. No input may panic or exhaust memory, and every accepted
// payload must re-encode to the same bytes.
func FuzzManifest(f *testing.F) {
	f.Add(encodeManifest(nil))
	f.Add(encodeManifest([]ModelMeta{
		{Kind: "wafer", Name: "demo", Version: 2, Hash: "sha256:00ff"},
		{Kind: "outlier", Name: "screen", Version: 1},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeManifest(data)
		if err != nil {
			return
		}
		if again := encodeManifest(entries); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x but re-encodes to %x", data, again)
		}
	})
}
