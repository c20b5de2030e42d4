package circuit

import (
	"sync"
	"testing"
)

// TestCompiledMatchesNetlist cross-checks every table of the compiled IR
// (Order, Tpos, the Pos* graph, MaxFanin and the FFR stems) against the
// per-gate slices of the netlist it was built from, and the PI-prefix
// invariant: position i is PI i. It covers a generated netlist, the same
// netlist decoded by UnmarshalNetlist, the s27 .bench netlist (three scan
// DFFs: pseudo-PIs whose D-sources are pseudo-POs), a scan netlist whose
// DFF is created after a logic gate, so its gate ID is not its PI index,
// and a netlist that reads one net on two pins of a gate (the
// repeated-fanin stem rule of the fanout-free regions).
func TestCompiledMatchesNetlist(t *testing.T) {
	gen := Random(16, 300, 11)
	data, err := gen.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalNetlist(data)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := ParseBenchString(s27, "s27")
	if err != nil {
		t.Fatal(err)
	}
	late := New("latescan")
	late.MustAddGate("a", Input)
	late.MustAddGate("b", Input)
	late.MustAddGate("n1", Nand, "a", "b")
	late.MustAddGate("q", DFF)
	late.MustAddGate("n2", Xor, "n1", "q")
	if err := late.MarkOutput("n2"); err != nil {
		t.Fatal(err)
	}
	if err := late.ConnectScanD("q", "n1"); err != nil {
		t.Fatal(err)
	}
	rep := New("repeated")
	rep.MustAddGate("a", Input)
	rep.MustAddGate("b", Input)
	rep.MustAddGate("x", Nand, "a", "a", "b")
	rep.MustAddGate("y", Not, "x")
	rep.MustAddGate("z", Xor, "y", "b")
	if err := rep.MarkOutput("z"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Netlist{gen, decoded, scan, late, rep} {
		checkCompiled(t, n)
	}
}

func checkCompiled(t *testing.T, n *Netlist) {
	t.Helper()
	c, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if c.Net != n {
		t.Fatal("Compiled.Net does not point back at the source netlist")
	}
	if c.NumGates() != len(n.Gates) || c.NumPIs() != len(n.PIs) {
		t.Fatalf("%s counts: gates %d/%d PIs %d/%d", n.Name,
			c.NumGates(), len(n.Gates), c.NumPIs(), len(n.PIs))
	}
	for i, id := range n.TopoOrder() {
		if int(c.Order[i]) != id {
			t.Fatalf("%s: Order[%d] = %d want %d", n.Name, i, c.Order[i], id)
		}
		if int(c.Tpos[id]) != i {
			t.Fatalf("%s: Tpos[%d] = %d want %d", n.Name, id, c.Tpos[id], i)
		}
	}
	for i, id := range n.PIs {
		if int(c.Order[i]) != id {
			t.Errorf("%s: position %d holds gate %d, want PI %d (gate %d)", n.Name, i, c.Order[i], i, id)
		}
	}
	poIdx := make(map[int]int32)
	for i, po := range n.POs {
		poIdx[po] = int32(i)
	}
	if len(c.Pos) != len(n.Gates)+1 || len(c.PosKind) != len(n.Gates) {
		t.Fatalf("%s position tables: %d records, %d kinds for %d gates", n.Name, len(c.Pos), len(c.PosKind), len(n.Gates))
	}
	maxFanin := 0
	for p, id := range c.Order {
		g := n.Gates[id]
		maxFanin = max(maxFanin, len(g.Fanin))
		po, ok := poIdx[g.ID]
		if !ok {
			po = -1
		}
		if c.PosKind[p] != g.Type || c.Pos[p].PO != po {
			t.Errorf("%s: position %d (gate %d): kind %v PO %d, want %v %d", n.Name, p, id, c.PosKind[p], c.Pos[p].PO, g.Type, po)
		}
		fanin := c.PosFanin[c.Pos[p].In:c.Pos[p+1].In]
		if len(fanin) != len(g.Fanin) {
			t.Fatalf("%s: position %d fanin len %d != %d", n.Name, p, len(fanin), len(g.Fanin))
		}
		for pin, f := range g.Fanin {
			if int(c.Order[fanin[pin]]) != f || int(fanin[pin]) >= p {
				t.Errorf("%s: position %d fanin[%d] = %d holds gate %d, want gate %d (< %d)", n.Name, p, pin, fanin[pin], c.Order[fanin[pin]], f, p)
			}
		}
		fanout := c.PosFanout[c.Pos[p].Out:c.Pos[p+1].Out]
		if len(fanout) != len(g.Fanout) {
			t.Fatalf("%s: position %d fanout len %d != %d", n.Name, p, len(fanout), len(g.Fanout))
		}
		for k, fo := range g.Fanout {
			if int(c.Order[fanout[k]]) != fo || int(fanout[k]) <= p {
				t.Errorf("%s: position %d fanout[%d] = %d holds gate %d, want gate %d (> %d)", n.Name, p, k, fanout[k], c.Order[fanout[k]], fo, p)
			}
		}
	}
	if last := c.Pos[len(n.Gates)]; int(last.In) != len(c.PosFanin) || int(last.Out) != len(c.PosFanout) {
		t.Errorf("%s: sentinel record %+v, want In %d Out %d", n.Name, last, len(c.PosFanin), len(c.PosFanout))
	}
	if c.MaxFanin != maxFanin {
		t.Errorf("%s: MaxFanin %d, want %d", n.Name, c.MaxFanin, maxFanin)
	}
	checkFFRs(t, n, c, poIdx)
}

// checkFFRs recomputes the fanout-free regions from the netlist's per-gate
// slices: a gate continues its region into its consumer only when it has
// one fanout, is no PO, feeds that consumer on one pin and the consumer is
// no pseudo-PI; the stem is where that chain ends.
func checkFFRs(t *testing.T, n *Netlist, c *Compiled, poIdx map[int]int32) {
	t.Helper()
	next := func(id int) int {
		g := n.Gates[id]
		if _, po := poIdx[id]; po || len(g.Fanout) != 1 {
			return -1
		}
		q := n.Gates[g.Fanout[0]]
		pins := 0
		for _, f := range q.Fanin {
			if f == id {
				pins++
			}
		}
		if pins != 1 || q.Type == Input || q.Type == DFF {
			return -1
		}
		return q.ID
	}
	if len(c.FFRStem) != len(n.Gates) {
		t.Fatalf("%s FFR table: %d entries for %d gates", n.Name, len(c.FFRStem), len(n.Gates))
	}
	for _, g := range n.Gates {
		p := int(c.Tpos[g.ID])
		wantNext := -1
		stem := g.ID
		for q := next(g.ID); q >= 0; q = next(q) {
			if stem == g.ID {
				wantNext = int(c.Tpos[q])
			}
			stem = q
		}
		if c.FFRNext(p) != wantNext || c.FFRStem[p] != c.Tpos[stem] {
			t.Errorf("%s: gate %q: FFRNext %d FFRStem %d, want %d %d", n.Name, g.Name, c.FFRNext(p), c.FFRStem[p], wantNext, c.Tpos[stem])
		}
	}
}

// TestCompiledCached pins the compile-once contract: repeated and
// concurrent Compiled() calls return the same pointer and perform exactly
// one compilation; construction-time mutation invalidates the cache.
func TestCompiledCached(t *testing.T) {
	n := Random(8, 50, 2)
	before := CompileCount()
	first, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*Compiled, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Compiled()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = c
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c != first {
			t.Fatalf("call %d returned a different Compiled instance", i)
		}
	}
	if d := CompileCount() - before; d != 1 {
		t.Fatalf("netlist compiled %d times, want exactly 1", d)
	}
	n.MustAddGate("extra", Not, n.Gates[n.PIs[0]].Name)
	if err := n.MarkOutput("extra"); err != nil {
		t.Fatal(err)
	}
	second, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("mutating the netlist did not invalidate the compiled cache")
	}
	if second.NumGates() != first.NumGates()+1 {
		t.Fatalf("recompiled gate count %d, want %d", second.NumGates(), first.NumGates()+1)
	}
}

// TestCompileRejectsUnknownGateType pins the compile-time gate-type check:
// a netlist smuggling an out-of-range gate type (only constructible by
// bypassing AddGate) fails at Compile, not mid-simulation.
func TestCompileRejectsUnknownGateType(t *testing.T) {
	n := MustC17()
	for _, g := range n.Gates {
		if g.Type == Nand {
			g.Type = GateType(97)
			break
		}
	}
	if _, err := Compile(n); err == nil {
		t.Fatal("Compile accepted a netlist with an unknown gate type")
	}
}

// TestCompileRejectsReorderedPIs pins the PI-prefix check: a PI list that
// is not the first topological positions (only constructible by editing
// Net.PIs by hand) fails at Compile, since every engine reads PI i at
// position i.
func TestCompileRejectsReorderedPIs(t *testing.T) {
	n := MustC17()
	n.PIs[0], n.PIs[1] = n.PIs[1], n.PIs[0]
	if _, err := Compile(n); err == nil {
		t.Fatal("Compile accepted a PI list out of topological order")
	}
}
