package spice

import (
	"math"
	"testing"
)

// inverter builds a minimum inverter: PMOS width 2 (mobility balance),
// NMOS width 1.
func inverter() *Cell {
	c := NewCell("INV_X1", 1)
	c.AddStage(DevW(0, 2), DevW(0, 1), 0.4e-15)
	return c
}

// nand2 builds a 2-input NAND: parallel PMOS, series NMOS (widened 2x to
// compensate stacking).
func nand2() *Cell {
	c := NewCell("NAND2_X1", 2)
	c.AddStage(
		Par(DevW(0, 2), DevW(1, 2)),
		Ser(DevW(0, 2), DevW(1, 2)),
		0.6e-15,
	)
	return c
}

// and2 is NAND2 followed by an inverter stage (2-stage cell).
func and2() *Cell {
	c := NewCell("AND2_X1", 2)
	mid := c.AddStage(
		Par(DevW(0, 2), DevW(1, 2)),
		Ser(DevW(0, 2), DevW(1, 2)),
		0.6e-15,
	)
	c.AddStage(DevW(mid, 2), DevW(mid, 1), 0.4e-15)
	return c
}

func TestDeviceCurrentsMonotone(t *testing.T) {
	p := Default(300)
	// Current increases with vgs.
	prev := 0.0
	for vgs := 0.0; vgs <= p.VDD; vgs += 0.05 {
		id := p.idN(vgs, p.VDD, 1)
		if id < prev {
			t.Fatalf("idN not monotone in vgs at %.2f", vgs)
		}
		prev = id
	}
	// On current vastly exceeds off current.
	if on, off := p.idN(p.VDD, p.VDD, 1), p.idN(0, p.VDD, 1); on < 1e4*off {
		t.Errorf("on/off ratio too small: %g / %g", on, off)
	}
	// vds = 0 carries no current.
	if p.idN(p.VDD, 0, 1) != 0 {
		t.Error("current at vds=0 must be zero")
	}
	// Width scales current.
	if r := p.idN(0.5, 0.3, 2) / p.idN(0.5, 0.3, 1); math.Abs(r-2) > 1e-9 {
		t.Errorf("width scaling = %f, want 2", r)
	}
}

func TestCryoDeviceBehaviour(t *testing.T) {
	warm, cold := Default(300), Default(10)
	// Leakage collapses by orders of magnitude at 10 K.
	if lw, lc := warm.idN(0, warm.VDD, 1), cold.idN(0, cold.VDD, 1); lc > lw*1e-6 {
		t.Errorf("cryo leakage %g not ≪ 300K leakage %g", lc, lw)
	}
	// Threshold rises at cryo.
	if cold.vthN() <= warm.vthN() {
		t.Error("cryo threshold must increase")
	}
	// On-current stays the same order (mobility gain vs Vth rise).
	ion300 := warm.idN(warm.VDD, warm.VDD, 1)
	ion10 := cold.idN(cold.VDD, cold.VDD, 1)
	if r := ion10 / ion300; r < 0.5 || r > 3 {
		t.Errorf("cryo/warm on-current ratio %f outside plausible band", r)
	}
}

func TestCellLogic(t *testing.T) {
	inv := inverter()
	if inv.Logic([]bool{false}) != true || inv.Logic([]bool{true}) != false {
		t.Error("inverter logic wrong")
	}
	nd := nand2()
	for _, c := range []struct {
		a, b, y bool
	}{{false, false, true}, {false, true, true}, {true, false, true}, {true, true, false}} {
		if got := nd.Logic([]bool{c.a, c.b}); got != c.y {
			t.Errorf("NAND(%v,%v) = %v", c.a, c.b, got)
		}
	}
	a2 := and2()
	if !a2.Logic([]bool{true, true}) || a2.Logic([]bool{true, false}) {
		t.Error("AND2 logic wrong")
	}
}

func TestPinCapAndTransistors(t *testing.T) {
	nd := nand2()
	if nd.Transistors() != 4 {
		t.Errorf("NAND2 transistors = %d", nd.Transistors())
	}
	if nd.PinCap(0) <= 0 {
		t.Error("pin cap must be positive")
	}
	// X2 drive doubles pin cap.
	x2 := nd.ScaleDrive(2, "NAND2_X2")
	if r := x2.PinCap(0) / nd.PinCap(0); math.Abs(r-2) > 1e-9 {
		t.Errorf("drive scaling pin cap ratio = %f", r)
	}
}

func TestSensitizingSideInputs(t *testing.T) {
	nd := nand2()
	side, ok := SensitizingSideInputs(nd, 0)
	if !ok {
		t.Fatal("NAND2 pin 0 must be sensitizable")
	}
	if side[1] != true {
		t.Errorf("NAND2 side input must be 1, got %v", side)
	}
}

func TestInverterTransient(t *testing.T) {
	inv := inverter()
	p := Default(300)
	side := []bool{false}
	m, err := Simulate(inv, p, Arc{Pin: 0, RiseIn: true, InSlew: 10e-12, LoadCap: 1e-15, SideInputs: side})
	if err != nil {
		t.Fatal(err)
	}
	if m.Delay <= 0 || m.Delay > 200e-12 {
		t.Errorf("inverter delay = %g s, outside plausible range", m.Delay)
	}
	if m.Slew <= 0 {
		t.Errorf("output slew = %g", m.Slew)
	}
	if m.Energy <= 0 {
		t.Errorf("switching energy = %g", m.Energy)
	}
}

func TestDelayMonotoneInLoad(t *testing.T) {
	inv := inverter()
	p := Default(300)
	prev := 0.0
	for _, load := range []float64{0.5e-15, 1e-15, 2e-15, 4e-15, 8e-15} {
		m, err := Simulate(inv, p, Arc{Pin: 0, RiseIn: true, InSlew: 10e-12, LoadCap: load, SideInputs: []bool{false}})
		if err != nil {
			t.Fatal(err)
		}
		if m.Delay <= prev {
			t.Errorf("delay not increasing with load at %g: %g <= %g", load, m.Delay, prev)
		}
		prev = m.Delay
	}
}

func TestDelayDecreasesWithDrive(t *testing.T) {
	p := Default(300)
	x1 := inverter()
	x4 := x1.ScaleDrive(4, "INV_X4")
	arc := Arc{Pin: 0, RiseIn: true, InSlew: 10e-12, LoadCap: 8e-15, SideInputs: []bool{false}}
	m1, err := Simulate(x1, p, arc)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := Simulate(x4, p, arc)
	if err != nil {
		t.Fatal(err)
	}
	if m4.Delay >= m1.Delay {
		t.Errorf("X4 not faster than X1 under load: %g vs %g", m4.Delay, m1.Delay)
	}
}

func TestDelayIncreasesWithVth(t *testing.T) {
	inv := inverter()
	arc := Arc{Pin: 0, RiseIn: true, InSlew: 10e-12, LoadCap: 2e-15, SideInputs: []bool{false}}
	fresh := Default(300)
	aged := Default(300)
	aged.DVthN = 0.08
	aged.DVthP = 0.08
	m0, err := Simulate(inv, fresh, arc)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Simulate(inv, aged, arc)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Delay <= m0.Delay {
		t.Errorf("aged cell not slower: %g vs %g", m1.Delay, m0.Delay)
	}
}

func TestStackDepthSlowsFall(t *testing.T) {
	// Deeper series NMOS stacks (NAND3 vs NAND2, same device widths) must
	// slow the output-fall arc — the stacking effect.
	p := Default(300)
	nd2 := nand2()
	nd3 := NewCell("NAND3_X1", 3)
	nd3.AddStage(
		Par(DevW(0, 2), DevW(1, 2), DevW(2, 2)),
		Ser(DevW(0, 2), DevW(1, 2), DevW(2, 2)),
		0.6e-15,
	)
	side2, _ := SensitizingSideInputs(nd2, 0)
	side3, _ := SensitizingSideInputs(nd3, 0)
	m2, err := Simulate(nd2, p, Arc{Pin: 0, RiseIn: true, InSlew: 10e-12, LoadCap: 2e-15, SideInputs: side2})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Simulate(nd3, p, Arc{Pin: 0, RiseIn: true, InSlew: 10e-12, LoadCap: 2e-15, SideInputs: side3})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Delay <= m2.Delay {
		t.Errorf("NAND3 fall (%g) not slower than NAND2 fall (%g)", m3.Delay, m2.Delay)
	}
}

func TestTwoStageCellTransient(t *testing.T) {
	a2 := and2()
	p := Default(300)
	side, ok := SensitizingSideInputs(a2, 1)
	if !ok {
		t.Fatal("AND2 pin 1 must be sensitizable")
	}
	m, err := Simulate(a2, p, Arc{Pin: 1, RiseIn: true, InSlew: 15e-12, LoadCap: 1e-15, SideInputs: side})
	if err != nil {
		t.Fatal(err)
	}
	if m.Delay <= 0 {
		t.Errorf("two-stage delay = %g", m.Delay)
	}
}

func TestLeakageStateDependent(t *testing.T) {
	p := Default(300)
	nd := nand2()
	// Both inputs high: output low, leakage through 2 parallel OFF PMOS.
	// Both low: series OFF NMOS stack → stacking suppresses leakage.
	lHH := Leakage(nd, p, []bool{true, true})
	lLL := Leakage(nd, p, []bool{false, false})
	if lLL >= lHH {
		t.Errorf("series OFF stack must leak less: LL=%g HH=%g", lLL, lHH)
	}
	if lHH <= 0 {
		t.Error("leakage must be positive")
	}
}

func TestLeakageCryoCollapse(t *testing.T) {
	nd := nand2()
	lw := Leakage(nd, Default(300), []bool{true, true})
	lc := Leakage(nd, Default(10), []bool{true, true})
	if lc > lw*1e-6 {
		t.Errorf("cryo cell leakage %g not ≪ %g", lc, lw)
	}
}

func TestLogicContentionPanics(t *testing.T) {
	c := NewCell("BROKEN", 2)
	// Pull-up gated by pin 0 (conducts when low), pull-down by pin 1
	// (conducts when high): inputs {false,true} drive both on.
	c.AddStage(DevW(0, 1), DevW(1, 1), 1e-15)
	defer func() {
		if recover() == nil {
			t.Error("contention must panic")
		}
	}()
	c.Logic([]bool{false, true})
}

func TestArcValidation(t *testing.T) {
	inv := inverter()
	p := Default(300)
	if _, err := Simulate(inv, p, Arc{Pin: 5, SideInputs: []bool{false}}); err == nil {
		t.Error("bad pin must error")
	}
	if _, err := Simulate(inv, p, Arc{Pin: 0, SideInputs: []bool{}}); err == nil {
		t.Error("bad side inputs must error")
	}
	// Non-sensitized arc: AND2 with side input 0 never toggles output.
	a2 := and2()
	if _, err := Simulate(a2, p, Arc{Pin: 0, RiseIn: true, InSlew: 1e-11, LoadCap: 1e-15, SideInputs: []bool{false, false}}); err == nil {
		t.Error("unsensitized arc must error")
	}
}

func BenchmarkTransient(b *testing.B) {
	inv := inverter()
	p := Default(300)
	arc := Arc{Pin: 0, RiseIn: true, InSlew: 10e-12, LoadCap: 2e-15, SideInputs: []bool{false}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(inv, p, arc); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: arc delay grows monotonically with the aging threshold shift
// across the plausible ΔVth range.
func TestDelayMonotoneInDVth(t *testing.T) {
	inv := inverter()
	arc := Arc{Pin: 0, RiseIn: true, InSlew: 10e-12, LoadCap: 2e-15, SideInputs: []bool{false}}
	prev := 0.0
	for _, dv := range []float64{0, 0.02, 0.05, 0.08, 0.12} {
		p := Default(300)
		p.DVthN, p.DVthP = dv, dv
		m, err := Simulate(inv, p, arc)
		if err != nil {
			t.Fatal(err)
		}
		if m.Delay <= prev {
			t.Fatalf("delay not increasing at ΔVth=%g: %g <= %g", dv, m.Delay, prev)
		}
		prev = m.Delay
	}
}
