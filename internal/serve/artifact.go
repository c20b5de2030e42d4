// Package serve is the online inference layer of the repository: it loads
// trained test-and-reliability models (HDC wafer-map classifiers, outlier
// screens) as versioned artifacts into an atomically hot-swappable
// registry, coalesces concurrent HTTP requests into micro-batches executed
// over the shared worker pool, and exposes the whole thing behind stdlib
// net/http with expvar metrics, pprof, structured logging, per-request
// timeouts, load shedding, and graceful drain — the "deployment artifact"
// half of the survey's ML-for-test story, where itrbench/itrwafer are the
// offline training half.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/outlier"
	"repro/internal/wire"
)

// Artifact kinds: which serving slot a model file fills.
const (
	// KindWaferHDC is a trained HDC wafer-map classifier
	// (payload: core.HDCWaferClassifier.AppendBinary).
	KindWaferHDC = "wafer-hdc"
	// KindOutlierScreen is a fitted, threshold-calibrated outlier scorer
	// (payload: appendScreenPayload).
	KindOutlierScreen = "outlier-screen"
)

// itr-model/v3 is the one artifact format. Identity is content: the
// artifact's hash is SHA-256 over its canonical body bytes (the
// easyfl LibraryHash pattern), so two artifacts are the same artifact iff
// their bytes are the same, replicas can diff and dedupe by hash alone,
// and a flipped bit anywhere surfaces as a typed refusal instead of a
// silently wrong model.
//
// File layout (everything after the 37-byte header is hashed):
//
//	offset  size  field
//	0       4     magic "ITRM"
//	4       1     format version (3)
//	5       32    sha256(body)
//	37      n     body
//
// body (canonical: fixed field order, big-endian, length-prefixed):
//
//	str  kind
//	str  name
//	u32  version
//	i64  created_unix
//	bytes payload            (kind-specific canonical model encoding)
//
// Payloads:
//
//	wafer-hdc       core.HDCWaferClassifier.AppendBinary
//	outlier-screen  str method, u32 tests, bytes scorer
//	                (outlier.AppendScorerBinary), f64 reject, f64 retest
//
// Version 2 used another hash over the same layout and carried an HDC
// mode byte in wafer-hdc payloads. A v2 file is refused by its version
// byte (ErrBadArtifact) before any hash is checked.
//
// CreatedUnix is inside the hashed body on purpose: an artifact is
// immutable once published, and re-publishing "the same" model under the
// same kind/name/version with any byte changed — even just the timestamp —
// is a forked lineage the registry must refuse rather than paper over.
const (
	// Schema names the artifact format.
	Schema = "itr-model/v3"

	artifactMagic   = "ITRM"
	artifactVersion = 3
	// artifactHeaderSize is the unhashed prefix: magic, version, hash.
	artifactHeaderSize = 4 + 1 + 32
	// maxArtifactBytes bounds a decoded artifact file (a corrupt length
	// field must not drive a runaway allocation).
	maxArtifactBytes = 1 << 30
)

// Typed artifact errors, pinned by the failure-path tests.
var (
	// ErrBadArtifact marks a structurally malformed artifact (bad magic,
	// unknown format version, truncated or trailing bytes).
	ErrBadArtifact = errors.New("serve: malformed itr-model/v3 artifact")
	// ErrHashMismatch marks an artifact whose bytes do not match its
	// content hash — bit rot, torn write, or in-flight corruption. Loaders
	// and replicas refuse such artifacts outright.
	ErrHashMismatch = errors.New("serve: artifact content hash mismatch")
	// ErrForkedLineage marks two different artifact contents claiming the
	// same kind/name/version. The registry refuses the second: versions
	// are immutable, and converging replicas must never disagree about
	// what a version means.
	ErrForkedLineage = errors.New("serve: forked artifact lineage")
)

// Artifact is the model envelope: self-describing metadata around the
// kind-specific canonical payload.
type Artifact struct {
	Kind        string
	Name        string
	Version     int
	CreatedUnix int64
	// Payload is the canonical model encoding (see the format above).
	Payload []byte
	// Hash is the hex content hash, stamped by NewArtifact, ContentHash,
	// EncodeV2 and DecodeArtifactV2. It is never trusted as input:
	// decoding refuses any body that does not hash to the header, and
	// Registry.Install recomputes it.
	Hash string
}

// NewArtifact wraps a canonical payload into a validated envelope with its
// content hash stamped.
func NewArtifact(kind, name string, version int, payload []byte) (*Artifact, error) {
	a := &Artifact{Kind: kind, Name: name, Version: version, Payload: payload}
	if _, err := a.ContentHash(); err != nil {
		return nil, err
	}
	return a, nil
}

// Validate checks the envelope invariants (known kind, positive version,
// non-empty payload).
func (a *Artifact) Validate() error {
	switch a.Kind {
	case KindWaferHDC, KindOutlierScreen:
	default:
		return fmt.Errorf("serve: unknown artifact kind %q", a.Kind)
	}
	if a.Version < 1 {
		return fmt.Errorf("serve: artifact version %d, want >= 1", a.Version)
	}
	if len(a.Payload) == 0 {
		return fmt.Errorf("serve: artifact %s/%s has empty payload", a.Kind, a.Name)
	}
	return nil
}

// ReadArtifact loads and verifies an artifact file. Anything that is not
// an itr-model/v3 file is refused with ErrBadArtifact.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := DecodeArtifactV2(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return a, nil
}

// WriteFile atomically writes the artifact (temp file + rename), so a
// concurrently re-scanning server never observes a half-written model.
func (a *Artifact) WriteFile(path string) error {
	data, err := a.EncodeV2()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".itr-model-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// appendScreenPayload appends the canonical outlier-screen payload.
func appendScreenPayload(b []byte, method string, tests int, s outlier.Scorer, reject, retest float64) ([]byte, error) {
	b = wire.AppendString(b, method)
	b = wire.AppendU32(b, uint32(tests))
	sb, err := outlier.AppendScorerBinary(nil, s)
	if err != nil {
		return nil, err
	}
	b = wire.AppendBytes(b, sb)
	b = wire.AppendF64(b, reject)
	b = wire.AppendF64(b, retest)
	return b, nil
}

// decodeScreenPayload parses and validates a canonical outlier-screen
// payload into an installable model (metadata filled in by the caller).
func decodeScreenPayload(data []byte) (*OutlierModel, error) {
	d := wire.NewDec(data)
	method := d.String()
	tests := int(d.U32())
	scorerBytes := d.Bytes()
	reject := d.F64()
	retest := d.F64()
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("serve: decode %s payload: %w", KindOutlierScreen, err)
	}
	if tests < 1 {
		return nil, fmt.Errorf("serve: outlier artifact declares %d tests", tests)
	}
	if retest > reject {
		return nil, fmt.Errorf("serve: retest threshold %g above reject threshold %g", retest, reject)
	}
	s, err := outlier.UnmarshalScorerBinary(scorerBytes)
	if err != nil {
		return nil, fmt.Errorf("serve: decode %s payload: %w", KindOutlierScreen, err)
	}
	// Scoring indexes the fitted state by test, so a vector of the
	// declared length must be exactly what the scorer was fitted on.
	dim, err := outlier.Dim(s)
	if err != nil {
		return nil, fmt.Errorf("serve: decode %s payload: %w", KindOutlierScreen, err)
	}
	if dim != tests {
		return nil, fmt.Errorf("serve: outlier artifact declares %d tests, its scorer was fitted on %d", tests, dim)
	}
	return &OutlierModel{
		Method: method, Tests: tests, Scorer: s,
		RejectThreshold: reject, RetestThreshold: retest,
	}, nil
}

// canonicalBody returns the hashed body bytes of the artifact.
func (a *Artifact) canonicalBody() []byte {
	b := wire.AppendString(nil, a.Kind)
	b = wire.AppendString(b, a.Name)
	b = wire.AppendU32(b, uint32(a.Version))
	b = wire.AppendI64(b, a.CreatedUnix)
	return wire.AppendBytes(b, a.Payload)
}

// ContentHash computes (and stamps) the artifact's identity: the hex
// SHA-256 of its canonical body.
func (a *Artifact) ContentHash() (string, error) {
	if err := a.Validate(); err != nil {
		return "", err
	}
	sum := sha256.Sum256(a.canonicalBody())
	a.Hash = hex.EncodeToString(sum[:])
	return a.Hash, nil
}

// EncodeV2 serializes the artifact into the binary file format, stamping
// the content hash. Encoding is deterministic: encode → decode → re-encode
// yields identical bytes and identical hash.
func (a *Artifact) EncodeV2() ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	body := a.canonicalBody()
	sum := sha256.Sum256(body)
	a.Hash = hex.EncodeToString(sum[:])
	out := make([]byte, 0, artifactHeaderSize+len(body))
	out = append(out, artifactMagic...)
	out = append(out, artifactVersion)
	out = append(out, sum[:]...)
	return append(out, body...), nil
}

// DecodeArtifactV2 parses and verifies a binary artifact. Every corruption
// maps to a typed error: structural damage (magic, version, framing,
// trailing bytes) is ErrBadArtifact; any flipped byte in the hashed body
// is ErrHashMismatch; an unknown kind or invalid envelope fails Validate.
// The payload itself stays opaque here — model decoding (and its own
// validation) happens at install time.
func DecodeArtifactV2(data []byte) (*Artifact, error) {
	if len(data) < artifactHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes, want >= %d", ErrBadArtifact, len(data), artifactHeaderSize)
	}
	if len(data) > maxArtifactBytes {
		return nil, fmt.Errorf("%w: %d bytes exceeds limit %d", ErrBadArtifact, len(data), maxArtifactBytes)
	}
	if string(data[:4]) != artifactMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadArtifact)
	}
	if data[4] != artifactVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrBadArtifact, data[4], artifactVersion)
	}
	var want [32]byte
	copy(want[:], data[5:artifactHeaderSize])
	body := data[artifactHeaderSize:]
	if sum := sha256.Sum256(body); sum != want {
		return nil, fmt.Errorf("%w: body hashes to %x, header claims %x",
			ErrHashMismatch, sum[:8], want[:8])
	}
	d := wire.NewDec(body)
	a := &Artifact{}
	a.Kind = d.String()
	a.Name = d.String()
	a.Version = int(d.U32())
	a.CreatedUnix = d.I64()
	a.Payload = append([]byte(nil), d.Bytes()...)
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArtifact, err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	a.Hash = hex.EncodeToString(want[:])
	return a, nil
}
