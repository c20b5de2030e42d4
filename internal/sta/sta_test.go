package sta

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/liberty"
	"repro/internal/spice"
)

// The characterized library is expensive; share one across tests.
var (
	libOnce sync.Once
	testLib *liberty.Library
	libErr  error
)

func lib(t testing.TB) *liberty.Library {
	t.Helper()
	libOnce.Do(func() {
		testLib, libErr = liberty.Characterize("t300", liberty.AllCells(),
			spice.Default(300), liberty.CoarseGrid())
	})
	if libErr != nil {
		t.Fatal(libErr)
	}
	return testLib
}

func TestMappingC17(t *testing.T) {
	n := circuit.MustC17()
	a, err := New(n, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range n.Gates {
		if g.Type == circuit.Input {
			if a.CellName(g.ID) != "" {
				t.Errorf("PI %s mapped to %s", g.Name, a.CellName(g.ID))
			}
			continue
		}
		if a.CellName(g.ID) == "" {
			t.Errorf("gate %s unmapped", g.Name)
		}
		if a.Load(g.ID) <= 0 {
			t.Errorf("gate %s has nonpositive load", g.Name)
		}
	}
}

func TestRunC17(t *testing.T) {
	n := circuit.MustC17()
	a, err := New(n, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tm.WCDelay <= 0 || tm.WCDelay > 1e-9 {
		t.Errorf("c17 critical delay = %g s, implausible", tm.WCDelay)
	}
	if tm.Fmax() <= 0 {
		t.Error("Fmax must be positive")
	}
	if len(tm.Path) < 2 {
		t.Fatalf("critical path too short: %d", len(tm.Path))
	}
	// Path must start at a PI and end at the critical PO.
	first := n.Gates[tm.Path[0].Gate]
	if first.Type != circuit.Input {
		t.Errorf("path starts at %s (%v)", first.Name, first.Type)
	}
	if tm.Path[len(tm.Path)-1].Gate != tm.CriticalPO {
		t.Error("path does not end at critical PO")
	}
	// Arrivals along the path must be non-decreasing and sum of step delays
	// must reproduce the endpoint arrival.
	sum := tm.Path[0].Arrival
	for i := 1; i < len(tm.Path); i++ {
		if tm.Path[i].Arrival < tm.Path[i-1].Arrival {
			t.Error("arrivals decrease along critical path")
		}
		sum += tm.Path[i].Delay
	}
	if math.Abs(sum-tm.WCDelay) > 1e-15 {
		t.Errorf("path delays sum %g != WC delay %g", sum, tm.WCDelay)
	}
}

func TestDeeperCircuitSlower(t *testing.T) {
	l := lib(t)
	a8, err := New(circuit.RippleAdder(8), l)
	if err != nil {
		t.Fatal(err)
	}
	a16, err := New(circuit.RippleAdder(16), l)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := a8.Run()
	if err != nil {
		t.Fatal(err)
	}
	t16, err := a16.Run()
	if err != nil {
		t.Fatal(err)
	}
	if t16.WCDelay <= t8.WCDelay {
		t.Errorf("16-bit adder (%g) not slower than 8-bit (%g)", t16.WCDelay, t8.WCDelay)
	}
}

func TestDerateScalesDelay(t *testing.T) {
	n := circuit.RippleAdder(8)
	a, err := New(n, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	a.SetUniformDerate(1.2)
	der, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Slews are unchanged by derating (only delay scales), so the total is
	// not exactly 1.2x, but must lie close.
	r := der.WCDelay / base.WCDelay
	if r < 1.15 || r > 1.25 {
		t.Errorf("uniform 1.2 derate scaled delay by %f", r)
	}
}

func TestPerGateDerateOnlyOffPathHarmless(t *testing.T) {
	n := circuit.MustC17()
	a, err := New(n, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	onPath := map[int]bool{}
	for _, s := range base.Path {
		onPath[s.Gate] = true
	}
	// Derate one gate off the critical path: WC delay must not decrease and
	// should stay equal unless that gate's path overtakes.
	a.Derates = make([]float64, len(n.Gates))
	for i := range a.Derates {
		a.Derates[i] = 1
	}
	victim := -1
	for _, g := range n.Gates {
		if g.Type != circuit.Input && !onPath[g.ID] {
			victim = g.ID
			break
		}
	}
	if victim < 0 {
		t.Skip("all gates on critical path")
	}
	a.Derates[victim] = 1.01
	der, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if der.WCDelay < base.WCDelay-1e-18 {
		t.Error("derating a gate reduced critical delay")
	}
}

func TestLeakagePower(t *testing.T) {
	n := circuit.MustC17()
	a, err := New(n, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.LeakagePower() <= 0 {
		t.Error("leakage must be positive at 300K")
	}
}

func TestBenchmarkSuiteAnalyzable(t *testing.T) {
	l := lib(t)
	for _, c := range circuit.BenchmarkSuite() {
		a, err := New(c, l)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		tm, err := a.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if tm.WCDelay <= 0 || math.IsInf(tm.WCDelay, 0) || math.IsNaN(tm.WCDelay) {
			t.Errorf("%s: WC delay = %g", c.Name, tm.WCDelay)
		}
		// Depth consistency: delay should grow with logic depth (loose
		// sanity: at least depth * 1 ps).
		if tm.WCDelay < float64(c.Depth())*1e-13 {
			t.Errorf("%s: delay %g suspiciously small for depth %d", c.Name, tm.WCDelay, c.Depth())
		}
	}
}

func TestDriveSizingReactsToLoad(t *testing.T) {
	// A gate driving many fanouts must get a bigger drive than one driving
	// a single fanout.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y1)
OUTPUT(y2)
OUTPUT(y3)
OUTPUT(y4)
OUTPUT(y5)
OUTPUT(y6)
OUTPUT(y7)
OUTPUT(y8)
OUTPUT(z)
hub = AND(a, b)
y1 = NOT(hub)
y2 = NOT(hub)
y3 = NOT(hub)
y4 = NOT(hub)
y5 = NOT(hub)
y6 = NOT(hub)
y7 = NOT(hub)
y8 = NOT(hub)
lone = AND(a, b)
z = NOT(lone)
`
	n, err := circuit.ParseBenchString(src, "fanout")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(n, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	hub, _ := n.GateByName("hub")
	lone, _ := n.GateByName("lone")
	if a.Load(hub.ID) <= a.Load(lone.ID) {
		t.Fatal("hub load not larger")
	}
	if a.CellName(hub.ID) == a.CellName(lone.ID) {
		t.Errorf("hub %s not upsized vs lone %s (loads %g vs %g)",
			a.CellName(hub.ID), a.CellName(lone.ID), a.Load(hub.ID), a.Load(lone.ID))
	}
}

func BenchmarkSTA(b *testing.B) {
	l := lib(b)
	n := circuit.Random(32, 1200, 2)
	a, err := New(n, l)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMinDelayProperties(t *testing.T) {
	l := lib(t)
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(8),
		circuit.ArrayMultiplier(4),
	} {
		a, err := New(c, l)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tm.MinDelay <= 0 {
			t.Errorf("%s: min delay = %g", c.Name, tm.MinDelay)
		}
		if tm.MinDelay > tm.WCDelay {
			t.Errorf("%s: min delay %g exceeds max %g", c.Name, tm.MinDelay, tm.WCDelay)
		}
	}
	// A circuit with one short and one long path: the short one bounds
	// MinDelay, the long one WCDelay.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(fast)
OUTPUT(slow)
fast = NOT(a)
s1 = NOT(b)
s2 = NOT(s1)
s3 = NOT(s2)
s4 = NOT(s3)
slow = NOT(s4)
`
	n, err := circuit.ParseBenchString(src, "skew")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(n, l)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tm.WCDelay < 3*tm.MinDelay {
		t.Errorf("skewed paths not separated: min %g max %g", tm.MinDelay, tm.WCDelay)
	}
}

// staPinned pins, bit for bit, each circuit's STA result on the shared
// coarse-grid test library: WCDelay and TotalEnergy as float64 bit
// patterns, and an FNV-64a digest of every gate's CellName, Load,
// ArrivalRise/Fall and SlewRise/Fall in gate-ID order. The figures are
// amd64 ones: Go fuses multiply-adds on arm64, ppc64le and s390x, which
// moves the characterized library in its last bits.
var staPinned = map[string]struct {
	wc, energy uint64
	digest     string
}{
	"c17":   {0x3db37ed7ea71a694, 0x3d14dd0139772332, "812c82c8667b0b85"},
	"rca16": {0x3df6feaf4774ac4a, 0x3d61fbbd3aa7c558, "87d2eed149555577"},
	"mul8":  {0x3e03210be09de2d5, 0x3d85649311d482bd, "55e39e66c6efa3d6"},
}

// TestSTAPinned keeps the mapping and the timing of c17, rca16 and mul8
// bit-identical to the pinned figures.
func TestSTAPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned figures are amd64 ones")
	}
	for _, n := range []*circuit.Netlist{circuit.MustC17(), circuit.RippleAdder(16), circuit.ArrayMultiplier(8)} {
		a, err := New(n, lib(t))
		if err != nil {
			t.Fatal(err)
		}
		tm, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for id := range n.Gates {
			h.Write([]byte(a.CellName(id)))
			for _, v := range []float64{a.Load(id), tm.ArrivalRise[id], tm.ArrivalFall[id], tm.SlewRise[id], tm.SlewFall[id]} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		digest := fmt.Sprintf("%016x", h.Sum64())
		wc, energy := math.Float64bits(tm.WCDelay), math.Float64bits(tm.TotalEnergy)
		want, ok := staPinned[n.Name]
		if !ok {
			t.Errorf("%q: {%#x, %#x} %q, not pinned", n.Name, wc, energy, digest)
			continue
		}
		if wc != want.wc || energy != want.energy || digest != want.digest {
			t.Errorf("%s: WCDelay %#x TotalEnergy %#x digest %s, want %#x %#x %s",
				n.Name, wc, energy, digest, want.wc, want.energy, want.digest)
		}
	}
}
