package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/wire"
)

// Registry replication: a serve node exposes its content-addressed
// artifact store on its ordinary HTTP port, and a replica converges by
// diffing manifests and pulling only the hashes it is missing.
//
//	GET /v1/artifacts         {"artifacts": [{kind, name, version, hash}, ...]}
//	GET /v1/artifacts/{hash}  raw itr-model/v3 file bytes (EncodeV2)
//
// Transport carries no integrity check of its own: every pulled artifact
// must decode as a v3 file whose body matches its embedded SHA-256 content
// hash, and that hash must be the one requested. A corrupted link, store or
// peer therefore yields a typed refusal, never a wrong model.

// maxManifestBytes bounds the manifest body a replica reads. One entry is
// about 110 bytes of JSON, so 256 KiB holds over 2000 artifacts, while a
// hostile body of empty entries still decodes in tens of megabytes.
const maxManifestBytes = 256 << 10

// ErrReplication marks a protocol-level replication failure: a non-200
// answer (an unknown hash is a 404), an oversized body, or a malformed
// manifest.
var ErrReplication = errors.New("serve: replication protocol error")

// ManifestResponse is the body of GET /v1/artifacts.
type ManifestResponse struct {
	Artifacts []ModelMeta `json:"artifacts"`
}

func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ManifestResponse{Artifacts: s.reg.Manifest()})
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	stored := s.reg.ArtifactByHash(hash)
	if stored == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown artifact hash %.12s", hash))
		return
	}
	// EncodeV2 stamps Hash; encode a copy so concurrent fetches never
	// write to the shared stored artifact.
	a := *stored
	data, err := a.EncodeV2()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// validHash reports whether h is a hex SHA-256 content hash as the
// registry stamps it: 64 lowercase hex characters.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// readCapped reads all of r, refusing more than limit bytes.
func readCapped(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrReplication, limit)
	}
	return data, nil
}

// decodeManifest reads a GET /v1/artifacts body (at most maxManifestBytes)
// and refuses any entry whose hash is not a valid content hash, so nothing
// but 64 hex characters ever reaches a fetch URL.
func decodeManifest(r io.Reader) ([]ModelMeta, error) {
	data, err := readCapped(r, maxManifestBytes)
	if err != nil {
		return nil, err
	}
	var m ManifestResponse
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: bad manifest: %v", ErrReplication, err)
	}
	for _, e := range m.Artifacts {
		if !validHash(e.Hash) {
			return nil, fmt.Errorf("%w: bad manifest: hash %q is not 64 lowercase hex characters",
				ErrReplication, e.Hash)
		}
	}
	return m.Artifacts, nil
}

// get issues a GET and returns the body of a 200 answer (the caller
// closes it); any other status is ErrReplication carrying the peer's
// error text.
func get(client *http.Client, url string) (io.ReadCloser, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%w: GET %s: status %d: %s",
			ErrReplication, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp.Body, nil
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

// ReplicateFrom reads the manifest of the serve node at baseURL (e.g.
// "http://host:8080"), diffs it against the local registry's content store,
// and pulls every hash the replica is missing. Each pulled artifact must
// decode as a valid itr-model/v3 file whose body matches its embedded
// content hash AND whose hash equals the one requested; anything else — a
// flipped byte in flight, a corrupted store, a peer serving the wrong
// content under a hash — is refused with a typed error and nothing is
// installed from that reply. Verified artifacts install through the
// ordinary hot-swap path (lineage and downgrade rules included) and, when
// dir is non-empty, persist there as .itm files so a restart reloads them
// without re-syncing. timeout bounds each HTTP request (<= 0 selects 30s).
func ReplicateFrom(baseURL string, reg *Registry, dir string, timeout time.Duration) (RepReport, error) {
	var rep RepReport
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	client := &http.Client{Timeout: timeout}
	body, err := get(client, baseURL+epArtifacts)
	if err != nil {
		return rep, err
	}
	remote, err := decodeManifest(body)
	body.Close()
	if err != nil {
		return rep, err
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
		body, err := get(client, baseURL+epArtifacts+"/"+want.Hash)
		if err != nil {
			return rep, err
		}
		data, err := readCapped(body, wire.DefaultMaxFrame)
		body.Close()
		if err != nil {
			return rep, err
		}
		a, err := DecodeArtifactV2(data)
		if err != nil {
			return rep, fmt.Errorf("replicate %s/%s/v%d from %s: %w",
				want.Kind, want.Name, want.Version, baseURL, err)
		}
		if a.Hash != want.Hash {
			return rep, fmt.Errorf("%w: requested %.12s…, peer sent content %.12s…",
				ErrHashMismatch, want.Hash, a.Hash)
		}
		// Persisted files are named after the artifact, which the peer
		// chose: a path separator would place the file outside dir.
		if dir != "" && strings.ContainsAny(a.Name, `/\`) {
			return rep, fmt.Errorf("%w: artifact name %q is not a file name", ErrReplication, a.Name)
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
