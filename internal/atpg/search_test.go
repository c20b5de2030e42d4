package atpg

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
)

// podemSearchWant pins PODEM's search on each circuit and guide, keyed
// "circuit/guide": the engine's Backtracks and Implications totals over the
// circuit's whole fault universe, generated in order on one engine, and an
// FNV-64a digest of every fault's status and test cube. The outcomes are
// checked elsewhere; these pins check the search itself, so a change of
// the engine's data layout must leave them equal.
var podemSearchWant = map[string]struct {
	backtracks, implications int64
	digest                   string
}{
	"c17/scoap":               {0, 150, "21d73a42803d70b4"},
	"c17/naive":               {0, 152, "f26e2981712dfafa"},
	"mul4/scoap":              {134, 3276, "3e53f299ee4bd0cd"},
	"mul4/naive":              {108, 3242, "9d7b3c7d3dbee198"},
	"rca16/scoap":             {0, 3586, "74f55bc31cd8ffcb"},
	"rca16/naive":             {0, 3586, "19dc61a7d0faae47"},
	"alu8/scoap":              {4108, 16070, "b8a4d126b0fd3a46"},
	"alu8/naive":              {3147, 13461, "19d53b49940bba8d"},
	"rand_i16_g300_s11/scoap": {10614, 39946, "37c5e1d4985c8304"},
	"rand_i16_g300_s11/naive": {9554, 37156, "1084f1f8b0ebd8e6"},
	"gparity3x6/scoap":        {0, 2430, "8f532e4d0d184629"},
	"gparity3x6/naive":        {0, 2466, "35afa65cdce4cc4d"},
}

// TestPODEMSearchPinned runs Generate over the fault universe of c17, mul4,
// rca16, alu8, Random(16,300,11) and a small gated-parity circuit under
// both guides and compares the search counters and the outcome digest with
// podemSearchWant.
func TestPODEMSearchPinned(t *testing.T) {
	circuits := []*circuit.Netlist{
		circuit.MustC17(),
		circuit.ArrayMultiplier(4),
		circuit.RippleAdder(16),
		circuit.ALUSlice(8),
		circuit.Random(16, 300, 11),
		circuit.GatedParity(3, 6, 4),
	}
	for _, n := range circuits {
		for guide, name := range map[Guide]string{GuideSCOAP: "scoap", GuideNaive: "naive"} {
			eng, err := New(n)
			if err != nil {
				t.Fatal(err)
			}
			eng.Guide = guide
			h := fnv.New64a()
			for _, f := range fault.Universe(n) {
				cube, status := eng.Generate(f)
				buf := []byte{byte(status)}
				for _, v := range cube {
					buf = append(buf, byte(v))
				}
				h.Write(buf)
			}
			key := n.Name + "/" + name
			got := fmt.Sprintf("%016x", h.Sum64())
			want, ok := podemSearchWant[key]
			if !ok {
				t.Errorf("%q: {%d, %d, %q}, not pinned", key, eng.Backtracks, eng.Implications, got)
				continue
			}
			if eng.Backtracks != want.backtracks || eng.Implications != want.implications || got != want.digest {
				t.Errorf("%s: backtracks %d implications %d digest %s, want %d %d %s",
					key, eng.Backtracks, eng.Implications, got, want.backtracks, want.implications, want.digest)
			}
		}
	}
}
