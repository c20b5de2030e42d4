package liberty

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
)

func TestLibRoundTrip(t *testing.T) {
	lib := smallLib(t, 300)
	var buf bytes.Buffer
	if err := lib.WriteLib(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseLib(&buf)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	if len(back.Cells) != len(lib.Cells) {
		t.Fatalf("cells %d != %d", len(back.Cells), len(lib.Cells))
	}
	if back.Params.TempK != lib.Params.TempK {
		t.Errorf("temperature %g != %g", back.Params.TempK, lib.Params.TempK)
	}
	for name, orig := range lib.Cells {
		got, ok := back.Cells[name]
		if !ok {
			t.Fatalf("cell %s lost", name)
		}
		if got.Inputs != orig.Inputs || got.Transistors != orig.Transistors {
			t.Errorf("%s: shape changed", name)
		}
		if relErr(got.LeakageAvg, orig.LeakageAvg) > 1e-6 {
			t.Errorf("%s: leakage %g != %g", name, got.LeakageAvg, orig.LeakageAvg)
		}
		for p := range orig.PinCaps {
			if relErr(got.PinCaps[p], orig.PinCaps[p]) > 1e-6 {
				t.Errorf("%s pin %d: cap %g != %g", name, p, got.PinCaps[p], orig.PinCaps[p])
			}
		}
		if len(got.Arcs) != len(orig.Arcs) {
			t.Fatalf("%s: arcs %d != %d", name, len(got.Arcs), len(orig.Arcs))
		}
		sortArcs(got)
		copyOrig := *orig
		copyOrig.Arcs = append([]TimingArc(nil), orig.Arcs...)
		sortArcs(&copyOrig)
		for i := range copyOrig.Arcs {
			a, b := copyOrig.Arcs[i], got.Arcs[i]
			if a.Pin != b.Pin || a.InRise != b.InRise || a.OutRise != b.OutRise {
				t.Fatalf("%s arc %d: identity changed (%+v vs %+v)", name, i, a.Pin, b.Pin)
			}
			compareTables(t, name, a.Delay, b.Delay)
			compareTables(t, name, a.OutSlew, b.OutSlew)
			compareTables(t, name, a.Energy, b.Energy)
		}
	}
}

func compareTables(t *testing.T, name string, a, b *Table) {
	t.Helper()
	if len(a.Slews) != len(b.Slews) || len(a.Loads) != len(b.Loads) {
		t.Fatalf("%s: table shape changed", name)
	}
	for i := range a.Values {
		for j := range a.Values[i] {
			if relErr(a.Values[i][j], b.Values[i][j]) > 1e-6 {
				t.Fatalf("%s: value [%d][%d] %g != %g", name, i, j, a.Values[i][j], b.Values[i][j])
			}
		}
	}
	for i := range a.Slews {
		if relErr(a.Slews[i], b.Slews[i]) > 1e-6 {
			t.Fatalf("%s: slew index changed", name)
		}
	}
}

func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

func TestParseLibErrors(t *testing.T) {
	cases := []string{
		"",
		"foo (x) { }",
		"library (l) { cell (X) { pin (Q7) { direction : input ; } } }",
		"library (l) { cell (X) {",
		"library (l) { cell (X) { area : ; } }",
	}
	for i, src := range cases {
		if _, err := ParseLib(strings.NewReader(src)); err == nil && i < 3 {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestParseLibComments(t *testing.T) {
	src := `
/* header comment */
library (demo) {
  nom_temperature : 300 ;
  nom_voltage : 0.7 ;
}
`
	lib, err := ParseLib(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if lib.Name != "demo" || lib.Params.TempK != 300 {
		t.Errorf("parsed %q %g", lib.Name, lib.Params.TempK)
	}
}

func TestWriteLibIsLibertyShaped(t *testing.T) {
	lib := smallLib(t, 300)
	var buf bytes.Buffer
	if err := lib.WriteLib(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, needle := range []string{
		"library (", "cell (INV)", "pin (A0)", "related_pin", "cell_rise", "values (",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("output missing %q", needle)
		}
	}
}

// sortArcs orders cell arcs deterministically (pin, then edge), so a parsed
// cell compares arc by arc with the one that was written.
func sortArcs(c *Cell) {
	sort.SliceStable(c.Arcs, func(i, j int) bool {
		if c.Arcs[i].Pin != c.Arcs[j].Pin {
			return c.Arcs[i].Pin < c.Arcs[j].Pin
		}
		return c.Arcs[i].InRise && !c.Arcs[j].InRise
	})
}
