package circuit

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// FuzzUnmarshalNetlist hammers the canonical netlist decoder, which reads
// bytes sent by remote coordinators. Contract under test: arbitrary input
// never panics, and every input the decoder accepts is canonical — it
// re-encodes to exactly the same bytes, so ContentHash names one circuit.
func FuzzUnmarshalNetlist(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "bench", "*.bench"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no .bench anchors found: %v", err)
	}
	var seeds []*Netlist
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		n, err := ParseBench(bytes.NewReader(src), filepath.Base(p))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, n)
	}
	scan := New("scan")
	scan.MustAddGate("a", Input)
	scan.MustAddGate("q", DFF)
	scan.MustAddGate("n", Nand, "a", "q")
	if err := scan.ConnectScanD("q", "n"); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, Random(8, 60, 3), scan)
	for _, n := range seeds {
		data, err := n.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(netlistMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := UnmarshalNetlist(data)
		if err != nil {
			return
		}
		again, err := n.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded netlist failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("re-encode differs from accepted input (%d vs %d bytes)", len(data), len(again))
		}
	})
}

// writeU32 appends a big-endian u32 to a hand-built encoding.
func writeU32(buf *bytes.Buffer, v uint32) { buf.Write(wire.AppendU32(nil, v)) }

// TestNetlistCodecRejectsNonCanonical pins the decoder's canonical-form
// checks on the PO and scan sections: inputs the construction API would
// silently normalize (and so re-encode differently) are refused instead.
func TestNetlistCodecRejectsNonCanonical(t *testing.T) {
	n := New("scan2")
	n.MustAddGate("a", Input)
	n.MustAddGate("q0", DFF)
	n.MustAddGate("q1", DFF)
	n.MustAddGate("x", Nand, "a", "q0")
	n.MustAddGate("y", Nor, "a", "q1")
	if err := n.ConnectScanD("q0", "x"); err != nil {
		t.Fatal(err)
	}
	if err := n.ConnectScanD("q1", "y"); err != nil {
		t.Fatal(err)
	}
	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Tail: PO count, PO IDs, scan count, (DFF, source) pairs.
	head := data[:len(data)-(4+4*len(n.POs)+4+8*len(n.ScanD))]
	encode := func(pos []uint32, scan [][2]uint32) []byte {
		var buf bytes.Buffer
		buf.Write(head)
		writeU32(&buf, uint32(len(pos)))
		for _, p := range pos {
			writeU32(&buf, p)
		}
		writeU32(&buf, uint32(len(scan)))
		for _, e := range scan {
			writeU32(&buf, e[0])
			writeU32(&buf, e[1])
		}
		return buf.Bytes()
	}
	if got := encode([]uint32{3, 4}, [][2]uint32{{1, 3}, {2, 4}}); !bytes.Equal(got, data) {
		t.Fatal("test encoder does not reproduce the canonical bytes")
	}
	for name, bad := range map[string][]byte{
		"duplicate PO":         encode([]uint32{3, 4, 3}, [][2]uint32{{1, 3}, {2, 4}}),
		"scan edges unordered": encode([]uint32{3, 4}, [][2]uint32{{2, 4}, {1, 3}}),
		"scan edge repeated":   encode([]uint32{3, 4}, [][2]uint32{{1, 3}, {1, 3}, {2, 4}}),
		"scan source not a PO": encode([]uint32{3}, [][2]uint32{{1, 3}, {2, 4}}),
	} {
		if _, err := UnmarshalNetlist(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
