package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// s27 is the ISCAS'89 s27 benchmark: three scan flip-flops, so the pinned
// netlist encoding covers the scan-edge section.
const s27 = `
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

// TestCodecBytesPinned pins the exact bytes of every canonical encoding
// that crosses a process boundary: the netlist codec (and with it
// Netlist.ContentHash), every cluster message and the journal header.
// Workers, journals and content hashes written by one build must be read
// by another, so any change here is a protocol change, not a refactor.
func TestCodecBytesPinned(t *testing.T) {
	sum := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	scan, err := circuit.ParseBenchString(s27, "s27")
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.ScanD) != 3 {
		t.Fatalf("s27 has %d scan edges, want 3", len(scan.ScanD))
	}
	netlists := map[string]*circuit.Netlist{
		"c17":   circuit.MustC17(),
		"rca16": circuit.RippleAdder(16),
		"mul8":  circuit.ArrayMultiplier(8),
		"s27":   scan,
	}
	got := map[string]string{}
	for name, n := range netlists {
		b, err := n.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got["netlist "+name] = sum(b)
	}

	n := circuit.RippleAdder(4)
	faults := fault.Universe(n)
	p := logic.NewPatternSet(len(n.PIs), 150)
	p.RandFill(rand.New(rand.NewSource(16)).Uint64)
	for _, kind := range []JobKind{KindDetect, KindDictionary} {
		setup, netHash, err := encodeSetup(7, kind, 4, n, p, faults)
		if err != nil {
			t.Fatal(err)
		}
		got["setup "+kind.String()] = sum(setup)
		if kind == KindDetect {
			h := &JournalHeader{
				Kind: kind, Words: 4, NFaults: uint32(len(faults)), NPOs: uint32(len(n.POs)),
				Inputs: uint32(p.Inputs), NPat: uint32(p.N), ShardUnit: 8,
				NShards:     uint32((len(faults) + 7) / 8),
				CircuitHash: netHash, InputsHash: hashJobInputs(p, faults),
			}
			got["journal header"] = sum(h.encode())
		}
	}
	got["hello"] = sum((&helloMsg{Proto: WireVersion, ID: "worker-3"}).encode())
	got["shard"] = sum((&shardMsg{JobID: 7, Shard: 5, Lo: 40, Hi: 48}).encode())
	got["result detect"] = sum((&resultMsg{JobID: 7, Shard: 5, Kind: KindDetect, Lo: 40, Hi: 44,
		DetBy: []int32{-1, 0, 63, 149}}).encode())
	got["result dictionary"] = sum((&resultMsg{JobID: 7, Shard: 1, Kind: KindDictionary, Lo: 2, Hi: 4,
		Rows: []sigEntry{
			{Fi: 0, Po: 1, Words: []logic.Word{0x8000000000000001, 0}},
			{Fi: 9, Po: 4, Words: []logic.Word{0, 0xfeedface}},
		}}).encode())
	got["error"] = sum((&errorMsg{JobID: 7, Shard: errorShardSetup, Msg: "netlist content hash mismatch"}).encode())
	got["done"] = sum((&doneMsg{JobID: 7}).encode())

	want := map[string]string{
		"netlist c17":       "5179b0113c1fff91a881732744814b23ee70aa599e019355c3ef6ba113cb72aa",
		"netlist rca16":     "a471423dc187b7889bd3b723e23d5fe1d544df992c52f5ba6d66e9a876d40260",
		"netlist mul8":      "ac25c2b2c3cda1a43423a793df223980c9319ceea91f53c2e29840da382e8e91",
		"netlist s27":       "21f048f34f619957c77aa0afaf55189a606535b0cdefaa4eb24f35399b15de83",
		"setup detect":      "1e58729c0ec7cf86ce682baac981ee1465a744fc49347ff54c5a28eddab5ab9c",
		"setup dictionary":  "48d6b79528f17f07671942751d8c0bad869c12ee1b2357e64c4a8bdbd790f943",
		"journal header":    "a32c34d87448b12be53c0f35e491bc642eef82622eb0c93156016febede388e7",
		"hello":             "3a582b274a1fc345eedbf7f56f9b0ab8753ccc24ff34992e5ce4088de090ea1d",
		"shard":             "5a07bf6e0edd3564d9eb9c4dd0ce622818334af6588eb616970048f8411ae8fb",
		"result detect":     "87e57ccd4451c16d861ccbd0bfb3477bdf05e8e43e23c555f7670407ebff0dfa",
		"result dictionary": "4251db3fa6c05a4ed274dc8f9555436ab79ff64ecae4e2acd740fb213e029550",
		"error":             "23c4edb68dd93d0e9487309d4cd630829caa709e3c049b78225aa3af27c7ffd2",
		"done":              "a3eb8db89fc5123ccfd49585059f292bc40a1c0d550b860f24f84efb4760fbf2",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: sha256 %s, pinned %s", name, got[name], w)
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: sha256 %s is not pinned", name, g)
		}
	}
}
