package liberty

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/spice"
)

func TestTableLookup(t *testing.T) {
	tab := &Table{
		Slews:  []float64{1, 2, 3},
		Loads:  []float64{10, 20},
		Values: [][]float64{{1, 2}, {3, 4}, {5, 6}},
	}
	// Exact grid points.
	if v := tab.Lookup(1, 10); v != 1 {
		t.Errorf("corner = %f", v)
	}
	if v := tab.Lookup(3, 20); v != 6 {
		t.Errorf("corner = %f", v)
	}
	// Midpoint bilinear.
	if v := tab.Lookup(1.5, 15); math.Abs(v-2.5) > 1e-12 {
		t.Errorf("midpoint = %f, want 2.5", v)
	}
	// Clamped extrapolation.
	if v := tab.Lookup(0, 5); v != 1 {
		t.Errorf("below-range clamp = %f", v)
	}
	if v := tab.Lookup(100, 100); v != 6 {
		t.Errorf("above-range clamp = %f", v)
	}
}

func TestBracket(t *testing.T) {
	xs := []float64{1, 2, 4}
	if i0, i1, f := bracket(xs, 2); i0 != 1 || i1 != 1 || f != 0 {
		t.Errorf("exact hit = %d,%d,%f", i0, i1, f)
	}
	if i0, i1, f := bracket(xs, 3); i0 != 1 || i1 != 2 || math.Abs(f-0.5) > 1e-12 {
		t.Errorf("interp = %d,%d,%f", i0, i1, f)
	}
}

func TestBaseCellLogicFunctions(t *testing.T) {
	check := func(c *spice.Cell, f func(in []bool) bool) {
		t.Helper()
		n := c.NumInputs
		for v := 0; v < 1<<uint(n); v++ {
			in := make([]bool, n)
			for i := range in {
				in[i] = v>>uint(i)&1 == 1
			}
			if got, want := c.Logic(in), f(in); got != want {
				t.Errorf("%s(%v) = %v, want %v", c.Name, in, got, want)
			}
		}
	}
	check(invCell(), func(in []bool) bool { return !in[0] })
	check(bufCell(), func(in []bool) bool { return in[0] })
	check(nandCell(2), func(in []bool) bool { return !(in[0] && in[1]) })
	check(nandCell(3), func(in []bool) bool { return !(in[0] && in[1] && in[2]) })
	check(norCell(2), func(in []bool) bool { return !(in[0] || in[1]) })
	check(norCell(3), func(in []bool) bool { return !(in[0] || in[1] || in[2]) })
	check(andCell(2), func(in []bool) bool { return in[0] && in[1] })
	check(andCell(3), func(in []bool) bool { return in[0] && in[1] && in[2] })
	check(orCell(2), func(in []bool) bool { return in[0] || in[1] })
	check(orCell(3), func(in []bool) bool { return in[0] || in[1] || in[2] })
	check(xorCell(), func(in []bool) bool { return in[0] != in[1] })
	check(xnorCell(), func(in []bool) bool { return in[0] == in[1] })
	check(aoi21Cell(), func(in []bool) bool { return !((in[0] && in[1]) || in[2]) })
	check(oai21Cell(), func(in []bool) bool { return !((in[0] || in[1]) && in[2]) })
}

func TestCellFor(t *testing.T) {
	cases := []struct {
		t     circuit.GateType
		fanin int
		want  string
	}{
		{circuit.Not, 1, "INV"},
		{circuit.Buf, 1, "BUF"},
		{circuit.Nand, 2, "NAND2"},
		{circuit.Nand, 3, "NAND3"},
		{circuit.And, 3, "AND3"},
		{circuit.Nor, 2, "NOR2"},
		{circuit.Or, 2, "OR2"},
		{circuit.Xor, 2, "XOR2"},
		{circuit.Xnor, 2, "XNOR2"},
	}
	for _, c := range cases {
		got, err := CellFor(c.t, c.fanin)
		if err != nil || got != c.want {
			t.Errorf("CellFor(%v,%d) = %q, %v", c.t, c.fanin, got, err)
		}
	}
	if _, err := CellFor(circuit.Xor, 3); err == nil {
		t.Error("XOR3 must be rejected")
	}
	if _, err := CellFor(circuit.Input, 0); err == nil {
		t.Error("Input must be rejected")
	}
}

// characterize a small cell subset once for the remaining tests.
func smallLib(t testing.TB, temp float64) *Library {
	t.Helper()
	cells := []*spice.Cell{invCell(), nandCell(2), xorCell()}
	lib, err := Characterize("test", cells, spice.Default(temp), CoarseGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestCharacterizeShape(t *testing.T) {
	lib := smallLib(t, 300)
	if len(lib.Cells) != 3 {
		t.Fatalf("cells = %d", len(lib.Cells))
	}
	inv, ok := lib.Cell("INV")
	if !ok {
		t.Fatal("INV missing")
	}
	if len(inv.Arcs) != 2 {
		t.Fatalf("INV arcs = %d, want 2", len(inv.Arcs))
	}
	// Inverting cell: input rise → output fall.
	for _, a := range inv.Arcs {
		if a.OutRise == a.InRise {
			t.Error("inverter arc not inverting")
		}
	}
	nand, _ := lib.Cell("NAND2")
	if len(nand.Arcs) != 4 {
		t.Fatalf("NAND2 arcs = %d, want 4", len(nand.Arcs))
	}
	if lib.SpiceRuns != (2+4+4)*9 {
		t.Errorf("spice runs = %d, want %d", lib.SpiceRuns, (2+4+4)*9)
	}
	if lib.SpiceSteps == 0 {
		t.Error("no steps accounted")
	}
}

func TestDelayTablesMonotoneInLoad(t *testing.T) {
	lib := smallLib(t, 300)
	for name, c := range lib.Cells {
		for _, arc := range c.Arcs {
			for i := range arc.Delay.Values {
				for j := 1; j < len(arc.Delay.Values[i]); j++ {
					if arc.Delay.Values[i][j] <= arc.Delay.Values[i][j-1] {
						t.Errorf("%s pin %d: delay not increasing with load (row %d)", name, arc.Pin, i)
					}
				}
			}
		}
	}
}

func TestAllDelaysPositive(t *testing.T) {
	lib := smallLib(t, 300)
	for name, c := range lib.Cells {
		for _, arc := range c.Arcs {
			for i := range arc.Delay.Values {
				for j := range arc.Delay.Values[i] {
					if arc.Delay.Values[i][j] <= 0 {
						t.Errorf("%s: nonpositive delay", name)
					}
					if arc.OutSlew.Values[i][j] <= 0 {
						t.Errorf("%s: nonpositive slew", name)
					}
					if arc.Energy.Values[i][j] <= 0 {
						t.Errorf("%s: nonpositive energy", name)
					}
				}
			}
		}
	}
}

func TestCryoCornerLeakageAndDelay(t *testing.T) {
	warm := smallLib(t, 300)
	cold := smallLib(t, 10)
	if cold.TotalLeakage() > warm.TotalLeakage()*1e-5 {
		t.Errorf("cryo library leakage %g not ≪ %g", cold.TotalLeakage(), warm.TotalLeakage())
	}
	// Delay shift at cryo stays modest (< 50% here; the paper reports <10%
	// for its technology).
	wInv, _ := warm.Cell("INV")
	cInv, _ := cold.Cell("INV")
	dw := wInv.Arcs[0].Delay.Values[1][1]
	dc := cInv.Arcs[0].Delay.Values[1][1]
	if r := dc / dw; r < 0.5 || r > 1.5 {
		t.Errorf("cryo/warm delay ratio = %f", r)
	}
}

func TestAgedLibrarySlower(t *testing.T) {
	fresh := smallLib(t, 300)
	p := spice.Default(300)
	p.DVthN, p.DVthP = 0.06, 0.06
	aged, err := Characterize("aged", []*spice.Cell{invCell(), nandCell(2), xorCell()}, p, CoarseGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for name := range fresh.Cells {
		f, a := fresh.Cells[name], aged.Cells[name]
		df := f.Arcs[0].Delay.Values[1][1]
		da := a.Arcs[0].Delay.Values[1][1]
		if da <= df {
			t.Errorf("%s: aged delay %g not slower than fresh %g", name, da, df)
		}
	}
}

func TestDelayHistogram(t *testing.T) {
	lib := smallLib(t, 300)
	h := lib.DelayHistogram()
	if len(h) != lib.SpiceRuns {
		t.Errorf("histogram size %d != runs %d", len(h), lib.SpiceRuns)
	}
	for i := 1; i < len(h); i++ {
		if h[i] < h[i-1] {
			t.Fatal("histogram not sorted")
		}
	}
	if lib.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestAllCellsExpandDrives(t *testing.T) {
	all := AllCells()
	if len(all) != len(BaseCells())*len(DriveStrengths) {
		t.Fatalf("AllCells = %d", len(all))
	}
	names := map[string]bool{}
	for _, c := range all {
		if names[c.Name] {
			t.Fatalf("duplicate cell name %s", c.Name)
		}
		names[c.Name] = true
	}
	if !names["NAND2_X4"] || !names["INV_X1"] {
		t.Error("expected drive variants missing")
	}
}

func TestArcLookupHelper(t *testing.T) {
	lib := smallLib(t, 300)
	nand, _ := lib.Cell("NAND2")
	arc, ok := nand.Arc(1, true)
	if !ok || arc.Pin != 1 || !arc.InRise {
		t.Error("Arc lookup failed")
	}
	if _, ok := nand.Arc(5, true); ok {
		t.Error("Arc must miss for bad pin")
	}
}

// Property: table lookups are bounded by the table's corner values for any
// query point (bilinear interpolation cannot overshoot).
func TestLookupBoundedProperty(t *testing.T) {
	lib := smallLib(t, 300)
	for _, c := range lib.Cells {
		for _, arc := range c.Arcs {
			tab := arc.Delay
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, row := range tab.Values {
				for _, v := range row {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
			}
			for _, slew := range []float64{0, 3e-12, 17e-12, 60e-12, 1e-9} {
				for _, load := range []float64{0, 2e-15, 9e-15, 25e-15, 1e-12} {
					got := tab.Lookup(slew, load)
					if got < lo-1e-18 || got > hi+1e-18 {
						t.Fatalf("%s: lookup(%g,%g)=%g outside [%g,%g]",
							c.Name, slew, load, got, lo, hi)
					}
				}
			}
		}
	}
}
