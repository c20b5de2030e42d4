package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
)

// TestDemoArtifactHashesPinned pins the content identity of the demo
// artifacts. The hash is SHA-256 over the canonical v3 body, so any
// change to a model's binary encoding, to the envelope layout or to the
// demo training shows up here as a changed identity.
func TestDemoArtifactHashesPinned(t *testing.T) {
	cfg := DemoConfig{Dim: 512, GridSize: 16, Seed: 1}
	for _, tc := range []struct {
		kind  string
		train func(DemoConfig, int) (*Artifact, error)
		want  string
	}{
		{KindWaferHDC, TrainWaferArtifact, "016ac3a45d4cbf69d0358bd78525cbc832d3b261b91153ee1f426b9c17d6f480"},
		{KindOutlierScreen, TrainOutlierArtifact, "cabac247a7ee36dc3775e240c380981f00382b3dd502c83ba4acfc7bca0ff1f0"},
	} {
		a, err := tc.train(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s content hash = %s, want %s", tc.kind, got, tc.want)
		}
		blob, err := a.EncodeV2()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeArtifactV2(blob)
		if err != nil {
			t.Fatal(err)
		}
		if back.Hash != tc.want {
			t.Errorf("%s decoded hash = %s, want %s", tc.kind, back.Hash, tc.want)
		}
	}
}

// TestContentHashOracle recomputes the identity without the wire codec:
// the body is laid out with encoding/binary straight from the documented
// format, and the identity must be the hex SHA-256 of exactly those bytes.
func TestContentHashOracle(t *testing.T) {
	cfg := DemoConfig{Dim: 64, GridSize: 8, TrainN: 1, Devices: 60, Seed: 3, OverkillBudget: 0.05}
	wa, err := TrainWaferArtifact(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	oa, err := TrainOutlierArtifact(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	oa.CreatedUnix = -1700000000
	for _, a := range []*Artifact{wa, oa} {
		be := binary.BigEndian
		var body []byte
		for _, s := range []string{a.Kind, a.Name} {
			body = be.AppendUint32(body, uint32(len(s)))
			body = append(body, s...)
		}
		body = be.AppendUint32(body, uint32(a.Version))
		body = be.AppendUint64(body, uint64(a.CreatedUnix))
		body = be.AppendUint32(body, uint32(len(a.Payload)))
		body = append(body, a.Payload...)
		sum := sha256.Sum256(body)
		want := hex.EncodeToString(sum[:])

		got, err := a.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: ContentHash = %s, want sha256(body) = %s", a.Kind, got, want)
		}
		file, err := a.EncodeV2()
		if err != nil {
			t.Fatal(err)
		}
		header := append([]byte("ITRM\x03"), sum[:]...)
		if !strings.HasPrefix(string(file), string(header)) || string(file[len(header):]) != string(body) {
			t.Errorf("%s: file is not magic | version 3 | sha256(body) | body", a.Kind)
		}
	}
}

// v2Fixture is an itr-model/v2 outlier-screen artifact (a one-test z-score
// screen) written by the last v2 encoder. Its header hash is BLAKE2b-256,
// which v3 no longer computes.
const v2Fixture = "4954524d02354f874ab8842221ab3448e76d33e654fdf1d4dc0e7b662f564a36" +
	"c0bc6d6bb10000000e6f75746c6965722d73637265656e0000000a76322d666978" +
	"7475726500000001000000006553f1000000003f0000000a7a73636f72652d7061" +
	"74000000010000001901000000013ff8000000000000000000013fd00000000000" +
	"0040180000000000004010000000000000"

// TestV2ArtifactRefused: a v2 file is refused by its format version as
// ErrBadArtifact, before its body is hashed. Were the version byte not
// bumped, the same bytes would be misreported as a corrupted body.
func TestV2ArtifactRefused(t *testing.T) {
	data, err := hex.DecodeString(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeArtifactV2(data)
	if !errors.Is(err, ErrBadArtifact) || errors.Is(err, ErrHashMismatch) {
		t.Fatalf("v2 artifact: err = %v, want ErrBadArtifact only", err)
	}
	if !strings.Contains(err.Error(), "format version 2, want 3") {
		t.Errorf("v2 artifact: err = %v, want it to name both versions", err)
	}
	data[4] = artifactVersion
	if _, err := DecodeArtifactV2(data); !errors.Is(err, ErrHashMismatch) {
		t.Errorf("v2 body under a v3 header: err = %v, want ErrHashMismatch", err)
	}
}
