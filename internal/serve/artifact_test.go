package serve

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/outlier"
	"repro/internal/wafer"
)

// TestArtifactV2RoundTripIdentity pins the identity contract for every
// model kind: encode → hash → decode → re-encode yields identical bytes
// and an identical content hash.
func TestArtifactV2RoundTripIdentity(t *testing.T) {
	w1, _, o1 := testArtifacts(t)
	for _, a := range []*Artifact{w1, o1} {
		hash, err := a.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		if len(hash) != 64 {
			t.Errorf("%s: hash %q is not hex SHA-256", a.Kind, hash)
		}
		data, err := a.EncodeV2()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeArtifactV2(data)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Kind != a.Kind || dec.Name != a.Name || dec.Version != a.Version ||
			dec.CreatedUnix != a.CreatedUnix || dec.Hash != hash {
			t.Errorf("%s: decoded envelope %+v does not match original", a.Kind, dec)
		}
		again, err := dec.EncodeV2()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: re-encode differs (%d vs %d bytes)", a.Kind, len(data), len(again))
		}
		if dec.Hash != hash {
			t.Errorf("%s: re-encode changed hash %.12s -> %.12s", a.Kind, hash, dec.Hash)
		}
	}
}

// TestArtifactV2FlippedByte: corrupting any single byte of an artifact
// is refused with a typed error — ErrBadArtifact in the unhashed header,
// ErrHashMismatch everywhere in the hashed body and in the hash itself.
// The outlier artifact is small enough to sweep every byte; the wafer
// artifact is swept with a stride.
func TestArtifactV2FlippedByte(t *testing.T) {
	w1, _, o1 := testArtifacts(t)
	for _, tc := range []struct {
		a      *Artifact
		stride int
	}{{o1, 1}, {w1, 101}} {
		data, err := tc.a.EncodeV2()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(data); i += tc.stride {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			_, err := DecodeArtifactV2(bad)
			if err == nil {
				t.Fatalf("%s: flipped byte %d of %d accepted", tc.a.Kind, i, len(data))
			}
			switch {
			case i < 5: // magic + format version
				if !errors.Is(err, ErrBadArtifact) {
					t.Fatalf("%s: header byte %d: err = %v, want ErrBadArtifact", tc.a.Kind, i, err)
				}
			default: // stored hash or hashed body
				if !errors.Is(err, ErrHashMismatch) {
					t.Fatalf("%s: byte %d: err = %v, want ErrHashMismatch", tc.a.Kind, i, err)
				}
			}
		}
		// Truncations and trailing bytes are refused too.
		for _, n := range []int{0, 4, 36, len(data) / 2, len(data) - 1} {
			if _, err := DecodeArtifactV2(data[:n]); err == nil {
				t.Fatalf("%s: truncation to %d bytes accepted", tc.a.Kind, n)
			}
		}
		if _, err := DecodeArtifactV2(append(append([]byte(nil), data...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", tc.a.Kind)
		}
	}
}

// TestArtifactFileSniffing: WriteFile/ReadArtifact round-trip an artifact
// through its file, and a file that does not start with the "ITRM" magic —
// such as a JSON model file — is refused as ErrBadArtifact.
func TestArtifactFileSniffing(t *testing.T) {
	_, _, o1 := testArtifacts(t)
	dir := t.TempDir()

	binPath := filepath.Join(dir, "screen.itm")
	if err := o1.WriteFile(binPath); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != o1.Hash || !bytes.Equal(got.Payload, o1.Payload) {
		t.Errorf("read file: hash %.12s, want %.12s (payload equal: %v)",
			got.Hash, o1.Hash, bytes.Equal(got.Payload, o1.Payload))
	}

	jsonPath := filepath.Join(dir, "screen.json")
	legacy := `{"schema": "itr-model/v0", "kind": "outlier-screen", "name": "x", "version": 1, "payload": {}}`
	if err := os.WriteFile(jsonPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(jsonPath); !errors.Is(err, ErrBadArtifact) {
		t.Errorf("JSON model file: err = %v, want ErrBadArtifact", err)
	}
}

// TestRegistryForkedLineage: once a kind/name/version is bound to a
// content hash, an artifact with the same coordinates but different bytes
// is refused — re-installing the identical artifact stays allowed.
func TestRegistryForkedLineage(t *testing.T) {
	_, _, o1 := testArtifacts(t)
	reg := NewRegistry()
	if _, err := reg.Install(o1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install(o1); err != nil {
		t.Errorf("re-install of the identical artifact refused: %v", err)
	}

	// Same kind/name/version, nudged threshold: different content.
	m, err := decodeScreenPayload(o1.Payload)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := appendScreenPayload(nil, m.Method, m.Tests, m.Scorer,
		m.RejectThreshold+0.5, m.RetestThreshold)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := NewArtifact(o1.Kind, o1.Name, o1.Version, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install(fork); !errors.Is(err, ErrForkedLineage) {
		t.Errorf("forked artifact: err = %v, want ErrForkedLineage", err)
	}
	if got := reg.Outlier().Meta.Hash; got != o1.Hash {
		t.Errorf("fork refusal changed the live model to %.12s", got)
	}

	// The store holds exactly the installed content, addressable by hash.
	man := reg.Manifest()
	if len(man) != 1 || man[0].Hash != o1.Hash {
		t.Errorf("manifest %+v, want exactly the installed artifact", man)
	}
	if a := reg.ArtifactByHash(o1.Hash); a == nil || a.Kind != o1.Kind {
		t.Error("installed artifact not addressable by content hash")
	}
	if a := reg.ArtifactByHash("deadbeef"); a != nil {
		t.Error("unknown hash resolved to an artifact")
	}
}

// TestOutlierScreenTestsMismatchRefused: an outlier-screen payload whose
// declared test count differs from its scorer's fitted dimension is
// refused at install. Installed, it would answer every score request of
// the declared length with a panic (an index past the fitted state).
func TestOutlierScreenTestsMismatchRefused(t *testing.T) {
	cases := []struct {
		name     string
		scorer   outlier.Scorer
		ref      [][]float64
		declared int
	}{
		{"zscore fitted on 1, declares 3", &outlier.ZScorePAT{}, [][]float64{{0}, {1}, {2}}, 3},
		{"knn fitted on 3, declares 1", &outlier.KNNOutlier{K: 1}, [][]float64{{0, 1, 2}, {1, 2, 3}}, 1},
	}
	for _, c := range cases {
		if err := c.scorer.Fit(c.ref); err != nil {
			t.Fatal(err)
		}
		payload, err := appendScreenPayload(nil, "m", c.declared, c.scorer, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewArtifact(KindOutlierScreen, "screen", 1, payload)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		if _, err := reg.Install(a); err == nil {
			t.Errorf("%s: installed", c.name)
		}
		if reg.Outlier() != nil || len(reg.Manifest()) != 0 {
			t.Errorf("%s: refused install left a model behind", c.name)
		}
	}
}

// TestRegistryLoadDirDedupe: byte-identical artifacts under different
// names count once.
func TestRegistryLoadDirDedupe(t *testing.T) {
	w1, _, o1 := testArtifacts(t)
	dir := t.TempDir()
	for _, name := range []string{"a.itm", "b.itm", "c.itm"} {
		if err := w1.WriteFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := o1.WriteFile(filepath.Join(dir, "screen.itm")); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	sum, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Installed != 2 || sum.Duplicates != 2 {
		t.Errorf("summary %+v, want 2 installed, 2 duplicates", sum)
	}
	if len(sum.Artifacts) != 4 {
		t.Errorf("artifact log %v, want one entry per readable file", sum.Artifacts)
	}
	for _, line := range sum.Artifacts {
		if !strings.Contains(line, w1.Hash[:12]) && !strings.Contains(line, o1.Hash[:12]) {
			t.Errorf("artifact log entry %q reports no known content hash", line)
		}
	}
	if !reg.Ready() {
		t.Error("registry not ready after deduped load")
	}
}

// TestArtifactFileRoundTripPredict is the serving property test: a model
// installed straight from training and the same model loaded from its
// artifact file produce bit-identical predictions and float64 score bits.
func TestArtifactFileRoundTripPredict(t *testing.T) {
	w1, _, o1 := testArtifacts(t)
	dir := t.TempDir()
	direct := NewRegistry()
	for name, a := range map[string]*Artifact{"wafer.itm": w1, "screen.itm": o1} {
		if _, err := direct.Install(a); err != nil {
			t.Fatal(err)
		}
		if err := a.WriteFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	loaded := NewRegistry()
	if sum, err := loaded.LoadDir(dir); err != nil || sum.Installed != 2 {
		t.Fatalf("load: %+v, %v", sum, err)
	}

	if a, b := direct.Wafer().Meta, loaded.Wafer().Meta; a != b {
		t.Errorf("wafer model identity changed across the file: %+v vs %+v", a, b)
	}
	wcfg := wafer.DefaultConfig()
	wcfg.Size = testCfg.GridSize
	for i, m := range wafer.GenerateDataset(5, wcfg, 99).Maps {
		if a, b := direct.Wafer().Cls.Predict(m), loaded.Wafer().Cls.Predict(m); a != b {
			t.Fatalf("map %d: trained model predicts %d, loaded model %d", i, a, b)
		}
	}
	lot := outlier.Synthesize(outlier.DefaultLotConfig(), 99)
	s1, s2 := direct.Outlier().Scorer, loaded.Outlier().Scorer
	for i, x := range lot.X {
		a, b := s1.Score(x), s2.Score(x)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("device %d: trained score %v, loaded score %v (bit mismatch)", i, a, b)
		}
	}
}

// FuzzArtifactV2 hammers the binary decoder: arbitrary bytes must never
// panic, and anything that decodes must re-encode to the exact input.
func FuzzArtifactV2(f *testing.F) {
	// Tiny models: every fuzz worker process re-runs this setup.
	cfg := DemoConfig{Dim: 64, GridSize: 8, TrainN: 1, Devices: 60, Seed: 3, OverkillBudget: 0.05}
	wa, err := TrainWaferArtifact(cfg, 1)
	if err != nil {
		f.Fatal(err)
	}
	oa, err := TrainOutlierArtifact(cfg, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range []*Artifact{wa, oa} {
		data, err := a.EncodeV2()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(artifactMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifactV2(data)
		if err != nil {
			return
		}
		again, err := a.EncodeV2()
		if err != nil {
			t.Fatalf("decoded artifact failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("re-encode differs from accepted input (%d vs %d bytes)", len(data), len(again))
		}
	})
}

// FuzzModelPayload feeds arbitrary bytes to both payload decoders that
// Registry.Install runs, since a validly hashed artifact from a lying peer
// carries whatever payload the peer chose. No input may panic, allocation
// must stay within a bound linear in the input, any accepted payload
// must re-encode to the exact input, and an accepted outlier screen must
// score a vector of its declared test count.
func FuzzModelPayload(f *testing.F) {
	cfg := DemoConfig{Dim: 64, GridSize: 8, TrainN: 1, Devices: 60, Seed: 3, OverkillBudget: 0.05}
	for _, train := range []func(DemoConfig, int) (*Artifact, error){TrainWaferArtifact, TrainOutlierArtifact} {
		a, err := train(cfg, 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(a.Payload)
		f.Add(a.Payload[:len(a.Payload)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wm := &core.HDCWaferClassifier{}
		werr := wm.UnmarshalBinary(data)
		om, oerr := decodeScreenPayload(data)
		runtime.ReadMemStats(&after)
		// The wafer encoder precomputes 3 vectors per die (position, pass,
		// fail) on at most wafer.MaxGridSize² dies, and each vector's
		// words are bounded by the 9 classifier accumulators of 4 bytes
		// per bit that the payload must carry: about 700 bytes per input
		// byte plus 5 MiB of vector headers at the smallest dim.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+1024*len(data)); alloc > limit {
			t.Fatalf("%d-byte payload allocated %d bytes, limit %d", len(data), alloc, limit)
		}
		if werr == nil {
			again, err := wm.AppendBinary(nil)
			if err != nil {
				t.Fatalf("decoded %s payload failed to re-encode: %v", KindWaferHDC, err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("%s re-encode differs from accepted input (%d vs %d bytes)", KindWaferHDC, len(data), len(again))
			}
		}
		if oerr == nil {
			// Any installable screen scores a vector of its declared
			// length; a panic here fails the fuzz run.
			om.Scorer.Score(make([]float64, om.Tests))
			again, err := appendScreenPayload(nil, om.Method, om.Tests, om.Scorer, om.RejectThreshold, om.RetestThreshold)
			if err != nil {
				t.Fatalf("decoded %s payload failed to re-encode: %v", KindOutlierScreen, err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("%s re-encode differs from accepted input (%d vs %d bytes)", KindOutlierScreen, len(data), len(again))
			}
		}
	})
}

// BenchmarkArtifactEncodeDecode measures the artifact codec on a
// 10k-dimensional HDC wafer classifier, reporting the encoded size.
func BenchmarkArtifactEncodeDecode(b *testing.B) {
	wcfg := wafer.DefaultConfig()
	wcfg.Size = 32
	train := wafer.GenerateDataset(4, wcfg, 1)
	cls := core.NewHDCWaferClassifier(10240, wcfg.Size, 3, 1)
	if err := cls.Fit(train); err != nil {
		b.Fatal(err)
	}
	payload, err := cls.AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewArtifact(KindWaferHDC, "bench-wafer-hdc", 1, payload)
	if err != nil {
		b.Fatal(err)
	}
	data, err := a.EncodeV2()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportMetric(float64(len(data)), "bytes")
		for i := 0; i < b.N; i++ {
			if _, err := a.EncodeV2(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportMetric(float64(len(data)), "bytes")
		for i := 0; i < b.N; i++ {
			dec, err := DecodeArtifactV2(data)
			if err != nil {
				b.Fatal(err)
			}
			cls := &core.HDCWaferClassifier{}
			if err := cls.UnmarshalBinary(dec.Payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
