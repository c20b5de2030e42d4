package spice

import (
	"fmt"
	"math"
)

// Measurement is the result of one characterized timing arc: the
// propagation delay (input 50% crossing to output 50% crossing), the output
// transition time (20%–80%), and the switching energy drawn from the
// supply during the event.
type Measurement struct {
	Delay  float64 // seconds
	Slew   float64 // seconds (20-80%)
	Energy float64 // joules
	Steps  int     // integration steps spent (cost accounting)
}

// Arc identifies one characterization point.
type Arc struct {
	Pin     int     // switching input pin
	RiseIn  bool    // input transitions low→high
	InSlew  float64 // input 20-80% transition time, seconds
	LoadCap float64 // external load, farads
	// SideInputs fixes the non-switching pins; it must sensitize the arc
	// (the output must change when the pin toggles).
	SideInputs []bool
}

// SensitizingSideInputs searches for side-input values under which toggling
// pin changes the cell output, preferring non-controlling values. It
// returns ok=false for untestable pins (should not happen for standard
// cells).
func SensitizingSideInputs(c *Cell, pin int) ([]bool, bool) {
	n := c.NumInputs
	for v := 0; v < 1<<uint(n); v++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		in[pin] = false
		lo := c.Logic(in)
		in[pin] = true
		hi := c.Logic(in)
		if lo != hi {
			return in, true
		}
	}
	return nil, false
}

// Simulate runs a transient analysis of one arc and measures delay, output
// slew and energy. The input ramps linearly over InSlew/0.6 seconds
// (converting the 20–80% spec to a full 0–100% ramp). Internal nodes start
// from the DC solution of the initial input vector.
func Simulate(c *Cell, p Params, arc Arc) (Measurement, error) {
	if arc.Pin < 0 || arc.Pin >= c.NumInputs {
		return Measurement{}, fmt.Errorf("spice: arc pin %d out of range for %s", arc.Pin, c.Name)
	}
	if len(arc.SideInputs) != c.NumInputs {
		return Measurement{}, fmt.Errorf("spice: %s: side inputs length %d != %d", c.Name, len(arc.SideInputs), c.NumInputs)
	}
	vdd := p.VDD
	nSig := c.NumSignals()

	// Initial digital state: switching pin at its start value.
	initial := make([]bool, c.NumInputs)
	copy(initial, arc.SideInputs)
	initial[arc.Pin] = !arc.RiseIn
	final := make([]bool, c.NumInputs)
	copy(final, arc.SideInputs)
	final[arc.Pin] = arc.RiseIn
	out0 := c.Logic(initial)
	out1 := c.Logic(final)
	if out0 == out1 {
		return Measurement{}, fmt.Errorf("spice: %s pin %d arc not sensitized by side inputs", c.Name, arc.Pin)
	}

	// Analog signal vector; DC-initialize internal nodes via digital logic.
	v := make([]float64, nSig)
	sigBool := make([]bool, nSig)
	copy(sigBool, initial)
	for i, s := range c.Stages {
		up := s.PullUp.conducts(sigBool, true)
		sigBool[c.NumInputs+i] = up
	}
	for i := 0; i < nSig; i++ {
		if sigBool[i] {
			v[i] = vdd
		}
	}

	// Per-stage output capacitance: intrinsic + in-cell fanout gate caps +
	// external load on the final output.
	caps := make([]float64, len(c.Stages))
	for i, s := range c.Stages {
		caps[i] = s.IntrinsicCap + c.internalLoad(c.NumInputs+i)
		if c.NumInputs+i == c.Output() {
			caps[i] += arc.LoadCap
		}
		if caps[i] < 1e-18 {
			caps[i] = 1e-18
		}
	}

	// Horizon estimate: ramp time plus RC time constants of every stage at
	// half drive.
	ramp := arc.InSlew / 0.6
	drive := p.idN(vdd, vdd/2, 1) // unit reference current
	horizon := ramp
	for i := range c.Stages {
		tau := caps[i] * vdd / math.Max(drive, 1e-9)
		horizon += 12 * tau
	}
	const maxExtend = 4
	dt := horizon / 3000
	if dt > ramp/40 && ramp > 0 {
		dt = ramp / 40
	}

	outSig := c.Output()
	rise := !out0 // output rising transition?

	// Crossing trackers.
	var tIn50, tOut50, tOut20, tOut80 float64 = -1, -1, -1, -1
	inStart := 0.0
	if !arc.RiseIn {
		inStart = vdd
	}
	prevIn, prevOut := inStart, v[outSig]
	energy := 0.0
	steps := 0

	deriv := func(vv []float64, dv []float64) (supply float64) {
		for i, s := range c.Stages {
			node := vv[c.NumInputs+i]
			vup := vdd - node
			iUp := 0.0
			if vup > 0 {
				g := s.PullUp.conductance(vv, vup, func(vg, vds, w float64) float64 {
					return p.idP(vdd-vg, vds, w)
				})
				iUp = g * vup
			}
			iDn := 0.0
			if node > 0 {
				g := s.PullDown.conductance(vv, node, func(vg, vds, w float64) float64 {
					return p.idN(vg, vds, w)
				})
				iDn = g * node
			}
			dv[i] = (iUp - iDn) / caps[i]
			supply += iUp
		}
		return supply
	}

	dv1 := make([]float64, len(c.Stages))
	dv2 := make([]float64, len(c.Stages))
	vMid := make([]float64, nSig)

	t := 0.0
	settledAfterRamp := false
	for ext := 0; ext <= maxExtend && !settledAfterRamp; ext++ {
		end := horizon * float64(ext+1)
		for t < end {
			// Input voltage at t and t+dt/2 (linear ramp).
			inV := func(tt float64) float64 {
				x := tt / ramp
				if x > 1 {
					x = 1
				}
				if x < 0 {
					x = 0
				}
				if arc.RiseIn {
					return vdd * x
				}
				return vdd * (1 - x)
			}
			v[arc.Pin] = inV(t)
			sup1 := deriv(v, dv1)
			copy(vMid, v)
			for i := range c.Stages {
				vMid[c.NumInputs+i] += dv1[i] * dt / 2
			}
			vMid[arc.Pin] = inV(t + dt/2)
			sup2 := deriv(vMid, dv2)
			for i := range c.Stages {
				v[c.NumInputs+i] += dv2[i] * dt
				if v[c.NumInputs+i] < 0 {
					v[c.NumInputs+i] = 0
				}
				if v[c.NumInputs+i] > vdd {
					v[c.NumInputs+i] = vdd
				}
			}
			energy += 0.5 * (sup1 + sup2) * vdd * dt
			t += dt
			steps++

			// Record crossings with linear interpolation.
			curIn := inV(t)
			if tIn50 < 0 && crossed(prevIn, curIn, vdd/2) {
				tIn50 = interp(t-dt, t, prevIn, curIn, vdd/2)
			}
			curOut := v[outSig]
			if rise {
				if tOut20 < 0 && crossed(prevOut, curOut, 0.2*vdd) {
					tOut20 = interp(t-dt, t, prevOut, curOut, 0.2*vdd)
				}
				if tOut50 < 0 && crossed(prevOut, curOut, 0.5*vdd) {
					tOut50 = interp(t-dt, t, prevOut, curOut, 0.5*vdd)
				}
				if tOut80 < 0 && crossed(prevOut, curOut, 0.8*vdd) {
					tOut80 = interp(t-dt, t, prevOut, curOut, 0.8*vdd)
				}
			} else {
				if tOut80 < 0 && crossed(prevOut, curOut, 0.2*vdd) {
					tOut80 = interp(t-dt, t, prevOut, curOut, 0.2*vdd)
				}
				if tOut50 < 0 && crossed(prevOut, curOut, 0.5*vdd) {
					tOut50 = interp(t-dt, t, prevOut, curOut, 0.5*vdd)
				}
				if tOut20 < 0 && crossed(prevOut, curOut, 0.8*vdd) {
					tOut20 = interp(t-dt, t, prevOut, curOut, 0.8*vdd)
				}
			}
			prevIn, prevOut = curIn, curOut

			if t > ramp && tOut50 > 0 && tOut80 > 0 && tOut20 > 0 {
				target := vdd
				if !rise {
					target = 0
				}
				if math.Abs(curOut-target) < 0.02*vdd {
					settledAfterRamp = true
					break
				}
			}
		}
	}
	if tIn50 < 0 || tOut50 < 0 || tOut20 < 0 || tOut80 < 0 {
		return Measurement{}, fmt.Errorf("spice: %s pin %d transient did not complete (in50=%g out50=%g)",
			c.Name, arc.Pin, tIn50, tOut50)
	}
	outSlew := tOut80 - tOut20
	if outSlew < 0 {
		outSlew = -outSlew
	}
	return Measurement{Delay: tOut50 - tIn50, Slew: outSlew, Energy: energy, Steps: steps}, nil
}

func crossed(a, b, th float64) bool {
	return (a-th)*(b-th) <= 0 && a != b
}

func interp(t0, t1, v0, v1, th float64) float64 {
	if v1 == v0 {
		return t1
	}
	return t0 + (t1-t0)*(th-v0)/(v1-v0)
}

// Leakage returns the static supply current of the cell for a digital input
// vector, summing each stage's OFF-network subthreshold current.
func Leakage(c *Cell, p Params, inputs []bool) float64 {
	sig := make([]bool, c.NumSignals())
	copy(sig, inputs)
	gateV := make([]float64, c.NumSignals())
	for i, s := range c.Stages {
		up := s.PullUp.conducts(sig, true)
		sig[c.NumInputs+i] = up
	}
	for i, b := range sig {
		if b {
			gateV[i] = p.VDD
		}
	}
	total := 0.0
	for i, s := range c.Stages {
		if sig[c.NumInputs+i] {
			// Output high: leakage through the OFF pull-down.
			g := s.PullDown.conductance(gateV, p.VDD, func(vg, vds, w float64) float64 {
				return p.idN(vg, vds, w)
			})
			total += g * p.VDD
		} else {
			g := s.PullUp.conductance(gateV, p.VDD, func(vg, vds, w float64) float64 {
				return p.idP(p.VDD-vg, vds, w)
			})
			total += g * p.VDD
		}
	}
	return total
}
