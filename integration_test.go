// Cross-module integration tests: flows that span several subsystems, the
// way a downstream user would chain them.
package repro_test

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/diagnosis"
	"repro/internal/fault"
	"repro/internal/liberty"
	"repro/internal/logic"
	"repro/internal/spice"
	"repro/internal/sta"
)

var (
	ilibOnce sync.Once
	ilib     *liberty.Library
	ilibErr  error
)

func integrationLib(t testing.TB) *liberty.Library {
	t.Helper()
	ilibOnce.Do(func() {
		ilib, ilibErr = liberty.Characterize("int300", liberty.AllCells(),
			spice.Default(300), liberty.CoarseGrid())
	})
	if ilibErr != nil {
		t.Fatal(ilibErr)
	}
	return ilib
}

// TestLibRoundTripPreservesSTA serializes a characterized library to
// Liberty text, parses it back, and checks that static timing analysis is
// bit-identical — the property a cached corner must satisfy.
func TestLibRoundTripPreservesSTA(t *testing.T) {
	lib := integrationLib(t)
	var buf bytes.Buffer
	if err := lib.WriteLib(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := liberty.ParseLib(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(8),
		circuit.ALUSlice(4),
	} {
		a1, err := sta.New(c, lib)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := sta.New(c, back)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := a1.Run()
		if err != nil {
			t.Fatal(err)
		}
		t2, err := a2.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(t1.WCDelay-t2.WCDelay) / t1.WCDelay; rel > 1e-6 {
			t.Errorf("%s: delay changed through Liberty round trip: %g vs %g",
				c.Name, t1.WCDelay, t2.WCDelay)
		}
	}
}

// TestATPGPatternsDriveDiagnosis chains ATPG → fault injection → diagnosis
// and requires the injected fault to be recovered at a top rank.
func TestATPGPatternsDriveDiagnosis(t *testing.T) {
	n := circuit.RippleAdder(6)
	gen, err := atpg.Run(n, atpg.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gen.Coverage < 0.99 {
		t.Fatalf("coverage %.3f too low for diagnosis study", gen.Coverage)
	}
	d, err := diagnosis.NewWorkersWords(n, gen.Patterns, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	hits := 0
	cases := 0
	for fi := 0; fi < len(d.Faults) && cases < 25; fi += 4 {
		if d.Dict[fi].FailBits() == 0 {
			continue
		}
		cases++
		obs, err := diagnosis.Observe(n, gen.Patterns, d.Faults[fi], 0, rng.Float64)
		if err != nil {
			t.Fatal(err)
		}
		cands := d.Diagnose(obs, nil)
		if r := d.HitRank(cands, fi); r >= 1 && r <= 3 {
			hits++
		}
	}
	if hits < cases*9/10 {
		t.Errorf("only %d/%d injected faults recovered in top-3", hits, cases)
	}
}

// TestBenchFileToFullFlow writes a generated circuit to .bench text, parses
// it back, and runs the whole test flow on the reparsed netlist.
func TestBenchFileToFullFlow(t *testing.T) {
	orig := circuit.ALUSlice(4)
	var buf bytes.Buffer
	if err := orig.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := circuit.ParseBenchString(buf.String(), "alu4-reparsed")
	if err != nil {
		t.Fatal(err)
	}
	res, err := atpg.Run(n, atpg.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Efficiency < 0.99 {
		t.Errorf("efficiency %.3f on reparsed netlist", res.Efficiency)
	}
	// STA must also accept the reparsed netlist.
	an, err := sta.New(n, integrationLib(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAgedCornerSlowsEveryCircuit characterizes an aged corner library and
// checks STA reports strictly slower timing than the fresh corner for every
// benchmark circuit — the cross-stack consistency behind experiment T6.
func TestAgedCornerSlowsEveryCircuit(t *testing.T) {
	fresh := integrationLib(t)
	p := spice.Default(300)
	p.DVthN, p.DVthP = 0.05, 0.05
	aged, err := liberty.Characterize("aged300", liberty.AllCells(), p, liberty.CoarseGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.RippleAdder(8),
		circuit.ArrayMultiplier(4),
	} {
		af, err := sta.New(c, fresh)
		if err != nil {
			t.Fatal(err)
		}
		aa, err := sta.New(c, aged)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := af.Run()
		if err != nil {
			t.Fatal(err)
		}
		ta, err := aa.Run()
		if err != nil {
			t.Fatal(err)
		}
		if ta.WCDelay <= tf.WCDelay {
			t.Errorf("%s: aged corner (%g) not slower than fresh (%g)",
				c.Name, ta.WCDelay, tf.WCDelay)
		}
	}
}

// TestPatternSetReuseAcrossEngines verifies logic/fault/atpg agree on the
// meaning of a pattern set: patterns exported from ATPG re-simulate to the
// same coverage through an independently constructed fault simulator.
func TestPatternSetReuseAcrossEngines(t *testing.T) {
	n := circuit.ArrayMultiplier(4)
	gen, err := atpg.Run(n, atpg.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Serialize to text and back, like itratpg -patterns does.
	texts := make([]string, gen.Patterns.N)
	for k := range texts {
		texts[k] = logic.FormatBits(gen.Patterns.Pattern(k))
	}
	p := logic.NewPatternSet(len(n.PIs), 0)
	for _, line := range texts {
		bits, err := logic.ParseBits(line)
		if err != nil {
			t.Fatal(err)
		}
		p.Append(bits)
	}
	fsim, err := fault.NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	r := fsim.Run(p, fault.Universe(n))
	if r.Detected != gen.Detected {
		t.Errorf("re-simulated coverage %d != ATPG-reported %d", r.Detected, gen.Detected)
	}
}
