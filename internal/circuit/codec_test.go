package circuit

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/wire"
)

// codecNetlists builds a spread of netlists covering the structural corners
// the codec must preserve: plain combinational circuits, scan DFFs with
// interleaved PI/DFF creation order, and generator output at several sizes.
func codecNetlists(t *testing.T) []*Netlist {
	t.Helper()
	scan := New("scanmix")
	scan.MustAddGate("a", Input)
	scan.MustAddGate("q0", DFF)
	scan.MustAddGate("b", Input)
	scan.MustAddGate("n1", Nand, "a", "q0")
	scan.MustAddGate("n2", Xor, "n1", "b")
	if err := scan.MarkOutput("n2"); err != nil {
		t.Fatal(err)
	}
	if err := scan.ConnectScanD("q0", "n1"); err != nil {
		t.Fatal(err)
	}
	return []*Netlist{
		MustC17(),
		RippleAdder(8),
		ArrayMultiplier(4),
		Random(16, 200, 7),
		GatedParity(4, 6, 4),
		scan,
	}
}

// sameStructure asserts exact structural identity — IDs, names, types, fanin
// order, PI/PO order and scan edges — which is the codec's whole contract.
func sameStructure(t *testing.T, want, got *Netlist) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("name %q != %q", got.Name, want.Name)
	}
	if len(got.Gates) != len(want.Gates) {
		t.Fatalf("gate count %d != %d", len(got.Gates), len(want.Gates))
	}
	for i, wg := range want.Gates {
		gg := got.Gates[i]
		if gg.ID != wg.ID || gg.Name != wg.Name || gg.Type != wg.Type {
			t.Fatalf("gate %d: got %+v want %+v", i, gg, wg)
		}
		if len(gg.Fanin) != len(wg.Fanin) {
			t.Fatalf("gate %d: fanin count %d != %d", i, len(gg.Fanin), len(wg.Fanin))
		}
		for k := range wg.Fanin {
			if gg.Fanin[k] != wg.Fanin[k] {
				t.Fatalf("gate %d: fanin[%d] %d != %d", i, k, gg.Fanin[k], wg.Fanin[k])
			}
		}
	}
	if len(got.PIs) != len(want.PIs) {
		t.Fatalf("PI count %d != %d", len(got.PIs), len(want.PIs))
	}
	for i := range want.PIs {
		if got.PIs[i] != want.PIs[i] {
			t.Fatalf("PI[%d] %d != %d", i, got.PIs[i], want.PIs[i])
		}
	}
	if len(got.POs) != len(want.POs) {
		t.Fatalf("PO count %d != %d", len(got.POs), len(want.POs))
	}
	for i := range want.POs {
		if got.POs[i] != want.POs[i] {
			t.Fatalf("PO[%d] %d != %d", i, got.POs[i], want.POs[i])
		}
	}
	if len(got.ScanD) != len(want.ScanD) {
		t.Fatalf("scan count %d != %d", len(got.ScanD), len(want.ScanD))
	}
	for dff, src := range want.ScanD {
		if got.ScanD[dff] != src {
			t.Fatalf("ScanD[%d] %d != %d", dff, got.ScanD[dff], src)
		}
	}
}

func TestNetlistCodecRoundTrip(t *testing.T) {
	for _, n := range codecNetlists(t) {
		data, err := n.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", n.Name, err)
		}
		got, err := UnmarshalNetlist(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", n.Name, err)
		}
		sameStructure(t, n, got)
		// Re-encoding the decoded netlist must reproduce the bytes — the
		// fixed point that makes ContentHash a content identity.
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", n.Name, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("%s: re-encoded bytes differ", n.Name)
		}
		h1, err := n.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := got.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("%s: content hash changed across round trip", n.Name)
		}
	}
}

// TestContentHashCached pins the hash-once contract: ContentHash equals
// sha256(MarshalBinary()) before and after each construction-time mutator,
// so every mutator drops the cached value — ConnectScanD too when its
// D-source is already an output, which leaves MarkOutput nothing to do.
// Concurrent ContentHash and Compiled calls share compileMu and agree (run
// under -race).
func TestContentHashCached(t *testing.T) {
	n := New("mut")
	n.MustAddGate("a", Input)
	n.MustAddGate("b", Input)
	n.MustAddGate("q", DFF)
	n.MustAddGate("x", And, "a", "b")
	if err := n.MarkOutput("x"); err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		data, err := n.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != sha256.Sum256(data) {
			t.Fatalf("%s: ContentHash is not sha256(MarshalBinary())", step)
		}
		if again, _ := n.ContentHash(); again != got {
			t.Fatalf("%s: second ContentHash differs", step)
		}
	}
	check("built")
	for _, m := range []struct {
		name string
		do   func() error
	}{
		{"AddGate", func() error { _, err := n.AddGate("y", Or, "x", "q"); return err }},
		{"MarkOutput", func() error { return n.MarkOutput("y") }},
		{"ConnectScanD to an output", func() error { return n.ConnectScanD("q", "x") }},
	} {
		before, _ := n.ContentHash()
		if err := m.do(); err != nil {
			t.Fatal(err)
		}
		if after, _ := n.ContentHash(); after == before {
			t.Fatalf("%s: ContentHash unchanged", m.name)
		}
		check(m.name)
	}

	big := Random(16, 400, 9)
	want, err := big.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if _, err := big.Compiled(); err != nil {
					t.Error(err)
				}
				return
			}
			if h, err := big.ContentHash(); err != nil || h != sha256.Sum256(want) {
				t.Errorf("concurrent ContentHash: %x, %v", h, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestNetlistCodecRejectsCorruption flips/truncates encoded bytes and
// requires a decode error — never a panic, never a silently different
// circuit that still hashes clean.
func TestNetlistCodecRejectsCorruption(t *testing.T) {
	n := Random(8, 60, 3)
	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := n.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := UnmarshalNetlist(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		got, err := UnmarshalNetlist(mut)
		if err != nil {
			continue // rejected: fine
		}
		h, err := got.ContentHash()
		if err != nil {
			continue
		}
		if h == want {
			// Decoded to a circuit claiming the original's identity: the
			// only legal way is if the flip didn't change the parse (it
			// must — every byte is load-bearing except none are padding).
			t.Fatalf("trial %d: corrupted encoding reproduced the original content hash", trial)
		}
	}
}

func TestNetlistCodecBadMagicAndVersion(t *testing.T) {
	n := MustC17()
	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := UnmarshalNetlist(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), data...)
	bad[4] = 99
	if _, err := UnmarshalNetlist(bad); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := UnmarshalNetlist(nil); err == nil {
		t.Error("empty input accepted")
	}
}

// s27 is the ISCAS'89 s27 benchmark: three scan flip-flops.
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

// TestUnmarshalNetlistReencodesIdentically decodes the pinned circuits and
// the 32k-gate generated circuit, requires the re-encoding to be
// byte-identical, and checks what the bytes do not carry: every gate's
// fanout list, in order, matches the netlist the construction API built.
func TestUnmarshalNetlistReencodesIdentically(t *testing.T) {
	scan, err := ParseBenchString(s27, "s27")
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.ScanD) != 3 {
		t.Fatalf("s27 has %d scan edges, want 3", len(scan.ScanD))
	}
	for _, n := range []*Netlist{MustC17(), RippleAdder(16), ArrayMultiplier(8), scan, Random(64, 32000, 3)} {
		data, err := n.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalNetlist(data)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("%s: re-encoded bytes differ", n.Name)
		}
		sameStructure(t, n, got)
		for id, g := range n.Gates {
			if gg := got.Gates[id]; !slices.Equal(gg.Fanout, g.Fanout) {
				t.Fatalf("%s: gate %d fanout %v, want %v", n.Name, id, gg.Fanout, g.Fanout)
			}
		}
		if id, ok := got.byName[n.Gates[len(n.Gates)-1].Name]; !ok || id != len(n.Gates)-1 {
			t.Fatalf("%s: name index lost the last gate", n.Name)
		}
	}
}

// rawGate is one gate of a hand-built encoding.
type rawGate struct {
	name  string
	typ   GateType
	fanin []uint32
}

// encodeRaw writes the canonical layout without the construction API's
// checks, so a test can hand the decoder circuits AddGate would refuse.
func encodeRaw(t *testing.T, gates []rawGate, pos []uint32, scan [][2]uint32) []byte {
	t.Helper()
	b, err := writeName(append([]byte(netlistMagic), netlistVersion), "raw")
	if err != nil {
		t.Fatal(err)
	}
	b = wire.AppendU32(b, uint32(len(gates)))
	for _, g := range gates {
		if b, err = writeName(b, g.name); err != nil {
			t.Fatal(err)
		}
		b = wire.AppendU16(append(b, byte(g.typ)), uint16(len(g.fanin)))
		for _, f := range g.fanin {
			b = wire.AppendU32(b, f)
		}
	}
	b = wire.AppendU32(b, uint32(len(pos)))
	for _, po := range pos {
		b = wire.AppendU32(b, po)
	}
	b = wire.AppendU32(b, uint32(len(scan)))
	for _, e := range scan {
		b = wire.AppendU32(wire.AppendU32(b, e[0]), e[1])
	}
	return b
}

// TestUnmarshalNetlistRejectsInvalidGates pins the construction checks the
// decoder makes itself: duplicate names, wrong arity for INPUT, DFF, BUF
// and NOT, a logic gate with no fanin, and a scan edge on a non-DFF.
func TestUnmarshalNetlistRejectsInvalidGates(t *testing.T) {
	in := func(name string) rawGate { return rawGate{name, Input, nil} }
	// The valid base: a, b, q (DFF), x = NAND(a, q), y = NOT(x); POs x, y;
	// scan q <- x.
	valid := []rawGate{in("a"), in("b"), {"q", DFF, nil}, {"x", Nand, []uint32{0, 2}}, {"y", Not, []uint32{3}}}
	with := func(i int, g rawGate) []rawGate {
		gs := slices.Clone(valid)
		gs[i] = g
		return gs
	}
	pos, scan := []uint32{3, 4}, [][2]uint32{{2, 3}}
	if _, err := UnmarshalNetlist(encodeRaw(t, valid, pos, scan)); err != nil {
		t.Fatalf("valid base rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		gates []rawGate
		scan  [][2]uint32
		want  string
	}{
		{"duplicate name", with(1, in("a")), scan, "duplicate gate name"},
		{"INPUT with fanin", with(1, rawGate{"b", Input, []uint32{0}}), scan, "requires 0 fanin"},
		{"DFF with fanin", with(2, rawGate{"q", DFF, []uint32{0}}), scan, "requires 0 fanin"},
		{"BUF without fanin", append(slices.Clone(valid), rawGate{"z", Buf, nil}), scan, "requires 1 fanin"},
		{"BUF with two fanins", append(slices.Clone(valid), rawGate{"z", Buf, []uint32{0, 1}}), scan, "requires 1 fanin"},
		{"NOT without fanin", with(4, rawGate{"y", Not, nil}), scan, "requires 1 fanin"},
		{"NOT with two fanins", with(4, rawGate{"y", Not, []uint32{0, 3}}), scan, "requires 1 fanin"},
		{"logic gate without fanin", with(3, rawGate{"x", Nand, nil}), scan, "requires fanin"},
		{"scan edge on a non-DFF", valid, [][2]uint32{{1, 3}}, "is not a DFF"},
	} {
		_, err := UnmarshalNetlist(encodeRaw(t, tc.gates, pos, tc.scan))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
