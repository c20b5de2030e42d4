package circuit

import (
	"sync"
	"testing"
)

// TestCompiledMatchesNetlist cross-checks every CSR table and side map of
// the compiled IR against the per-gate slices of the netlist it was built
// from.
func TestCompiledMatchesNetlist(t *testing.T) {
	n := Random(16, 300, 11)
	c, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if c.Net != n {
		t.Fatal("Compiled.Net does not point back at the source netlist")
	}
	if c.NumGates() != len(n.Gates) || c.NumPIs() != len(n.PIs) || c.NumPOs() != len(n.POs) {
		t.Fatalf("counts: gates %d/%d PIs %d/%d POs %d/%d",
			c.NumGates(), len(n.Gates), c.NumPIs(), len(n.PIs), c.NumPOs(), len(n.POs))
	}
	for _, g := range n.Gates {
		if c.Types[g.ID] != g.Type {
			t.Errorf("gate %d type %v != %v", g.ID, c.Types[g.ID], g.Type)
		}
		if int(c.Level[g.ID]) != g.Level {
			t.Errorf("gate %d level %d != %d", g.ID, c.Level[g.ID], g.Level)
		}
		fanin := c.Fanin(g.ID)
		if len(fanin) != len(g.Fanin) {
			t.Fatalf("gate %d fanin len %d != %d", g.ID, len(fanin), len(g.Fanin))
		}
		for p, f := range g.Fanin {
			if int(fanin[p]) != f {
				t.Errorf("gate %d fanin[%d] = %d want %d", g.ID, p, fanin[p], f)
			}
		}
		fanout := c.Fanout(g.ID)
		if len(fanout) != len(g.Fanout) {
			t.Fatalf("gate %d fanout len %d != %d", g.ID, len(fanout), len(g.Fanout))
		}
		for p, f := range g.Fanout {
			if int(fanout[p]) != f {
				t.Errorf("gate %d fanout[%d] = %d want %d", g.ID, p, fanout[p], f)
			}
		}
	}
	for i, id := range n.TopoOrder() {
		if int(c.Order[i]) != id {
			t.Fatalf("Order[%d] = %d want %d", i, c.Order[i], id)
		}
		if int(c.Tpos[id]) != i {
			t.Fatalf("Tpos[%d] = %d want %d", id, c.Tpos[id], i)
		}
	}
	piSeen, poSeen := 0, 0
	for id := range n.Gates {
		if p := c.PIPos[id]; p >= 0 {
			piSeen++
			if n.PIs[p] != id {
				t.Errorf("PIPos[%d] = %d but PIs[%d] = %d", id, p, p, n.PIs[p])
			}
		}
		if p := c.POIdx[id]; p >= 0 {
			poSeen++
			if n.POs[p] != id {
				t.Errorf("POIdx[%d] = %d but POs[%d] = %d", id, p, p, n.POs[p])
			}
		}
	}
	if piSeen != len(n.PIs) || poSeen != len(n.POs) {
		t.Errorf("PI/PO maps cover %d/%d and %d/%d", piSeen, len(n.PIs), poSeen, len(n.POs))
	}
	if c.Depth != n.Depth() {
		t.Errorf("Depth %d != %d", c.Depth, n.Depth())
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
