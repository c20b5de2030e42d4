package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// primaryRegistry builds a registry holding the three fixture artifacts
// (two wafer versions + one outlier screen) and serves it over loopback
// TCP through the ordinary server handler, optionally wrapped (nil wrap
// serves it as is). It returns the registry and the base URL.
func primaryRegistry(t *testing.T, wrap func(http.Handler) http.Handler) (*Registry, string) {
	t.Helper()
	w1, w2, o1 := testArtifacts(t)
	reg := NewRegistry()
	for _, a := range []*Artifact{w1, w2, o1} {
		if _, err := reg.Install(a); err != nil {
			t.Fatal(err)
		}
	}
	return reg, servePrimary(t, reg, wrap)
}

// servePrimary serves reg over loopback TCP and returns the base URL.
func servePrimary(t *testing.T, reg *Registry, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	s := New(Config{Registry: reg})
	t.Cleanup(s.Close)
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// corrupter flips one byte of the nth artifact body it serves (1-based,
// counted across all requests; 0 disables). Negative offsets count from
// the end. It corrupts after the server encoded the artifact, so only the
// embedded content hash stands between a replica and a wrong model.
type corrupter struct {
	next http.Handler

	mu     sync.Mutex
	served int
	nth    int
	offset int
}

func (c *corrupter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, epArtifacts+"/") {
		c.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	c.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	c.mu.Lock()
	c.served++
	if c.nth > 0 && c.served == c.nth {
		off := c.offset
		if off < 0 {
			off += len(body)
		}
		body[off] ^= 0x40
	}
	c.mu.Unlock()
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// arm makes the next artifact served the corrupted one.
func (c *corrupter) arm(offset int) {
	c.mu.Lock()
	c.nth, c.offset = c.served+1, offset
	c.mu.Unlock()
}

// TestReplicationConverges pins the acceptance criterion: a replica with
// an empty store pulls everything, ends with a manifest identical to the
// primary's, serves the same live models, and persists artifacts a
// restart can reload. A second sync is a no-op.
func TestReplicationConverges(t *testing.T) {
	primary, url := primaryRegistry(t, nil)
	replica := NewRegistry()
	dir := t.TempDir()

	rep, err := ReplicateFrom(url, replica, dir, 10*time.Second)
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
	rep, err = ReplicateFrom(url, replica, dir, 10*time.Second)
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

// TestArtifactFetchConcurrent: replicas fetching the same stored artifacts
// at once all get its exact file bytes, and (under -race) serving never
// writes to the shared store.
func TestArtifactFetchConcurrent(t *testing.T) {
	w1, w2, o1 := testArtifacts(t)
	files := map[string][]byte{}
	for _, a := range []*Artifact{w1, w2, o1} {
		data, err := a.EncodeV2()
		if err != nil {
			t.Fatal(err)
		}
		files[a.Hash] = data
	}
	_, url := primaryRegistry(t, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hash, want := range files {
				resp, err := http.Get(url + epArtifacts + "/" + hash)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := readCapped(resp.Body, int64(len(want)))
				resp.Body.Close()
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("GET %.12s: %d bytes, err %v; want the %d-byte file", hash, len(got), err, len(want))
				}
			}
		}()
	}
	wg.Wait()
}

// TestReplicationRefusesCorruption: a byte flipped in flight — at the
// artifact header, inside the stored hash, or anywhere in the hashed body
// — is refused with a typed error and installs nothing. The transport has
// no checksum of its own, so only the embedded content hash stands between
// the replica and a wrong model. After the corruption clears, the same
// replica converges.
func TestReplicationRefusesCorruption(t *testing.T) {
	c := &corrupter{}
	_, url := primaryRegistry(t, func(h http.Handler) http.Handler {
		c.next = h
		return c
	})
	// Offsets spanning the file: magic, format version, stored hash,
	// body header, and (via negative indexing) the payload tail.
	replica := NewRegistry()
	for _, off := range []int{0, 4, 5, 20, 37, 50, -1, -17} {
		c.arm(off)
		_, err := ReplicateFrom(url, replica, "", 10*time.Second)
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
	c.mu.Lock()
	c.nth = 0
	c.mu.Unlock()
	rep, err := ReplicateFrom(url, replica, "", 10*time.Second)
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
	url := servePrimary(t, reg, nil)

	replica := NewRegistry()
	_, err := ReplicateFrom(url, replica, "", 10*time.Second)
	if !errors.Is(err, ErrHashMismatch) {
		t.Errorf("lying peer: err = %v, want ErrHashMismatch", err)
	}
	if len(replica.Manifest()) != 0 {
		t.Errorf("lying peer installed %+v", replica.Manifest())
	}
}

// manifestOverride answers GET /v1/artifacts with body and passes every
// other request to the real handler, counting artifact fetches.
func manifestOverride(body string, fetches *atomic.Int64) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == epArtifacts {
				w.Write([]byte(body))
				return
			}
			if strings.HasPrefix(r.URL.Path, epArtifacts+"/") {
				fetches.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestReplicationUnknownHash: a manifest naming a hash the peer does not
// store leads to a 404 on the fetch, which the replica reports as
// ErrReplication without installing anything.
func TestReplicationUnknownHash(t *testing.T) {
	var fetches atomic.Int64
	missing := strings.Repeat("ab", 32)
	_, url := primaryRegistry(t, manifestOverride(
		`{"artifacts":[{"kind":"wafer-hdc","name":"demo","version":1,"hash":"`+missing+`"}]}`, &fetches))

	resp, err := http.Get(url + epArtifacts + "/" + missing)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("GET unknown hash: status %d, content type %q; want a 404 JSON error",
			resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	replica := NewRegistry()
	_, err = ReplicateFrom(url, replica, "", 10*time.Second)
	if !errors.Is(err, ErrReplication) || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown hash: err = %v, want ErrReplication with status 404", err)
	}
	if fetches.Load() != 2 || len(replica.Manifest()) != 0 {
		t.Errorf("unknown hash: %d fetches, installed %+v", fetches.Load(), replica.Manifest())
	}
}

// TestReplicationRefusesBadManifestHash: a manifest hash that is not 64
// lowercase hex characters is refused before any artifact is fetched, so
// a peer cannot steer the replica's requests to another path.
func TestReplicationRefusesBadManifestHash(t *testing.T) {
	for _, hash := range []string{"../x", "../../healthz", strings.Repeat("AB", 32), ""} {
		var fetches atomic.Int64
		_, url := primaryRegistry(t, manifestOverride(
			`{"artifacts":[{"kind":"wafer-hdc","name":"demo","version":1,"hash":"`+hash+`"}]}`, &fetches))
		replica := NewRegistry()
		_, err := ReplicateFrom(url, replica, "", 10*time.Second)
		if !errors.Is(err, ErrReplication) {
			t.Errorf("hash %q: err = %v, want ErrReplication", hash, err)
		}
		if fetches.Load() != 0 || len(replica.Manifest()) != 0 {
			t.Errorf("hash %q: %d fetches, installed %+v", hash, fetches.Load(), replica.Manifest())
		}
	}
}

// TestReplicationRefusesPathInName: the replica names persisted files
// after the artifact's kind, name and version, so a validly hashed
// artifact whose name holds a path separator must be refused before it
// can be written outside the models directory.
func TestReplicationRefusesPathInName(t *testing.T) {
	_, _, o1 := testArtifacts(t)
	evil, err := NewArtifact(o1.Kind, "../../../escaped", o1.Version, o1.Payload)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Install(evil); err != nil {
		t.Fatal(err)
	}
	url := servePrimary(t, reg, nil)

	root := t.TempDir()
	dir := filepath.Join(root, "a", "models")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	replica := NewRegistry()
	_, err = ReplicateFrom(url, replica, dir, 10*time.Second)
	if !errors.Is(err, ErrReplication) {
		t.Errorf("path in name: err = %v, want ErrReplication", err)
	}
	if len(replica.Manifest()) != 0 {
		t.Errorf("path in name: installed %+v", replica.Manifest())
	}
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("replica wrote %s", path)
		}
		return nil
	})
}

// FuzzManifest feeds arbitrary bodies to the replication manifest
// decoder. No input may panic, every accepted entry carries a 64-character
// lowercase hex hash, and allocation stays bounded by the manifest cap
// however long the input is.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(`{"artifacts":[]}`))
	f.Add([]byte(`{"artifacts":[{"kind":"wafer-hdc","name":"demo","version":2,"hash":"` +
		strings.Repeat("0f", 32) + `"}]}`))
	f.Add([]byte(`{"artifacts":[{"kind":"outlier-screen","name":"screen","version":1,"hash":"../x"}]}`))
	f.Add([]byte(`{"artifacts":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		entries, err := decodeManifest(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The JSON decoder spends up to about 110 bytes per input byte on
		// a body of empty entries (a 56-byte ModelMeta per "{},", plus
		// slice growth), and never reads past the cap.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+192*min(len(data), maxManifestBytes+1)); alloc > limit {
			t.Fatalf("%d-byte manifest allocated %d bytes, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		for _, e := range entries {
			if !validHash(e.Hash) {
				t.Fatalf("accepted manifest hash %q", e.Hash)
			}
		}
	})
}
