package serve

import "testing"

// TestDemoArtifactHashesPinned pins the content identity of the demo
// artifacts. The hash is blake2b-256 over the canonical v2 body, so any
// change to a model's binary encoding, to the envelope layout or to the
// demo training shows up here as a changed identity.
func TestDemoArtifactHashesPinned(t *testing.T) {
	cfg := DemoConfig{Dim: 512, GridSize: 16, Seed: 1}
	for _, tc := range []struct {
		kind  string
		train func(DemoConfig, int) (*Artifact, error)
		want  string
	}{
		{KindWaferHDC, TrainWaferArtifact, "210ff8a9a9cb16177dd8f560117bc7b0b16f6a67e38bfa89578082b5990936d8"},
		{KindOutlierScreen, TrainOutlierArtifact, "2b9ca63748950a6a40ec0f8c01682ec66e2679dae06286bcab3dd4b4c5287baa"},
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
