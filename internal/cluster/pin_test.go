package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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
	netHash, err := n.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []JobKind{KindDetect, KindDictionary} {
		setup := encodeSetup(7, kind, 4, netHash, p, faults)
		got["setup "+kind.String()] = sum(setup)
		if kind == KindDetect {
			h := &JournalHeader{
				Kind: kind, Words: 4, NFaults: uint32(len(faults)), NPOs: uint32(len(n.POs)),
				Inputs: uint32(p.Inputs), NPat: uint32(p.N), ShardUnit: 8,
				NShards:     uint32((len(faults) + 7) / 8),
				CircuitHash: netHash, InputsHash: inputsHash(setup),
			}
			got["journal header"] = sum(h.encode())
		}
	}
	netBytes, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got["netlist frame"] = sum((&netlistMsg{JobID: 7, NetBytes: netBytes}).encode())
	got["setup-reply ready"] = sum((&setupReplyMsg{JobID: 7, Status: setupReady}).encode())
	got["setup-reply need"] = sum((&setupReplyMsg{JobID: 7, Status: setupNeedNet}).encode())
	got["setup-reply refused"] = sum((&setupReplyMsg{JobID: 7, Status: setupRefused, Msg: "netlist content hash mismatch"}).encode())
	got["hello"] = sum((&helloMsg{Proto: WireVersion, ID: "worker-3"}).encode())
	got["shard"] = sum((&shardMsg{JobID: 7, Shard: 5, Lo: 40, Hi: 48}).encode())
	got["result detect"] = sum((&resultMsg{JobID: 7, Shard: 5, Kind: KindDetect, Lo: 40, Hi: 44,
		DetBy: []int32{-1, 0, 63, 149}}).encode())
	got["result dictionary"] = sum((&resultMsg{JobID: 7, Shard: 1, Kind: KindDictionary, Lo: 2, Hi: 4,
		Rows: []sigEntry{
			{Fi: 0, Po: 1, Words: []logic.Word{0x8000000000000001, 0}},
			{Fi: 9, Po: 4, Words: []logic.Word{0, 0xfeedface}},
		}}).encode())
	got["error"] = sum((&errorMsg{JobID: 7, Shard: math.MaxUint32, Msg: "netlist content hash mismatch"}).encode())
	got["done"] = sum((&doneMsg{JobID: 7}).encode())

	want := map[string]string{
		"netlist c17":         "5179b0113c1fff91a881732744814b23ee70aa599e019355c3ef6ba113cb72aa",
		"netlist rca16":       "a471423dc187b7889bd3b723e23d5fe1d544df992c52f5ba6d66e9a876d40260",
		"netlist mul8":        "ac25c2b2c3cda1a43423a793df223980c9319ceea91f53c2e29840da382e8e91",
		"netlist s27":         "21f048f34f619957c77aa0afaf55189a606535b0cdefaa4eb24f35399b15de83",
		"setup detect":        "e927a733adba4c50c25a71ccb62ecf4a29a9ba05b2b298ca3bbe28b0b546b4be",
		"setup dictionary":    "08b9ff775706e8629066bfaec489559148fecdf484963bc661291652ca5a96f5",
		"journal header":      "a32c34d87448b12be53c0f35e491bc642eef82622eb0c93156016febede388e7",
		"hello":               "33aa93aca158bb049e51e119453bd1138811b2114c71656c2768a3e802591407",
		"shard":               "5a07bf6e0edd3564d9eb9c4dd0ce622818334af6588eb616970048f8411ae8fb",
		"result detect":       "87e57ccd4451c16d861ccbd0bfb3477bdf05e8e43e23c555f7670407ebff0dfa",
		"result dictionary":   "4251db3fa6c05a4ed274dc8f9555436ab79ff64ecae4e2acd740fb213e029550",
		"error":               "23c4edb68dd93d0e9487309d4cd630829caa709e3c049b78225aa3af27c7ffd2",
		"done":                "a3eb8db89fc5123ccfd49585059f292bc40a1c0d550b860f24f84efb4760fbf2",
		"setup-reply ready":   "2d7be205cc6b081326fd3a0789c3cd04d87aa4c378e4ca89c08d342f26478d14",
		"setup-reply need":    "bafa094c851a266cb594349b6ccf35c3517131d82ca5449b3177edfc69a62a2c",
		"setup-reply refused": "4e9104b3995dcf964c8c8ec8dd4d7011b1be709b746b849bff490834fccd8ae8",
		"netlist frame":       "137cdad9c3ef202db26520114b4a30b8f0fc430a7c7fec89d3c5b219cd012d8d",
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

// hashJobInputs is the field-by-field oracle of inputsHash: the pattern
// dimensions, the pattern words and the fault list, each written to sha256
// in its wire encoding.
func hashJobInputs(p *logic.PatternSet, faults []fault.Fault) [32]byte {
	h := sha256.New()
	var b [8]byte
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(b[:4], v)
		h.Write(b[:4])
	}
	put32(uint32(p.Inputs))
	put32(uint32(p.N))
	for _, row := range p.Bits {
		for _, w := range row {
			binary.BigEndian.PutUint64(b[:], uint64(w))
			h.Write(b[:])
		}
	}
	put32(uint32(len(faults)))
	for _, f := range faults {
		put32(uint32(f.Gate))
		put32(uint32(int32(f.Pin)))
		h.Write([]byte{f.SA})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestInputsHashMatchesOracle pins that one sha256 over the setup's tail
// is the field-by-field digest of the job inputs, so journal headers
// written before and after the setup carried only a circuit hash agree.
func TestInputsHashMatchesOracle(t *testing.T) {
	big := circuit.Random(64, 32000, 3)
	all := fault.Universe(big)
	pick := rand.New(rand.NewSource(5)).Perm(len(all))[:24000]
	sample := make([]fault.Fault, len(pick))
	for i, j := range pick {
		sample[i] = all[j]
	}
	cases := []struct {
		name   string
		n      *circuit.Netlist
		npat   int
		faults []fault.Fault
	}{
		{"c17", circuit.MustC17(), 128, nil},
		{"rca16", circuit.RippleAdder(16), 256, nil},
		{"mul8", circuit.ArrayMultiplier(8), 192, nil},
		{"empty fault list", circuit.RippleAdder(16), 64, []fault.Fault{}},
		{"patterns not a multiple of 64", circuit.ArrayMultiplier(8), 150, nil},
		{"24000 of Random(64,32000,3)", big, 128, sample},
	}
	for i, tc := range cases {
		faults := tc.faults
		if faults == nil {
			faults = fault.Universe(tc.n)
		}
		p := testPatterns(tc.n, tc.npat, int64(i))
		setup := mustSetup(t, uint64(i+1), KindDetect, 8, tc.n, p, faults)
		if got, want := inputsHash(setup), hashJobInputs(p, faults); got != want {
			t.Errorf("%s: inputsHash %x, oracle %x", tc.name, got, want)
		}
	}
}
