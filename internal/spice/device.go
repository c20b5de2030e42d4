// Package spice is a compact transistor-level transient simulator used as
// the ground-truth engine for standard-cell characterization. It replaces
// the commercial SPICE + BSIM flow of the surveyed work with an
// alpha-power-law MOSFET model (Sakurai–Newton) extended with a
// subthreshold-conduction term and first-order temperature dependence, and
// a series/parallel network solver over multi-stage CMOS cells.
//
// The simulator intentionally preserves the *cost structure* of real
// characterization: one (cell, arc, slew, load) measurement runs a full
// numerically integrated transient, so sweeping a 7×7 NLDM grid over a
// whole library is orders of magnitude more expensive than evaluating a
// trained surrogate — the asymmetry that experiment T1 quantifies.
package spice

import "math"

// Params collects the technology parameters of the device model. All
// voltages in volts, currents in amperes, capacitances in farads, times in
// seconds.
type Params struct {
	VDD   float64 // supply voltage
	TempK float64 // operating temperature

	VthN, VthP float64 // threshold voltage magnitudes at 300 K
	KN, KP     float64 // drive factor per unit width (A/V^Alpha)
	Alpha      float64 // velocity-saturation exponent (~1.3 at 5 nm)
	Lambda     float64 // channel-length modulation (1/V)
	SSFactor   float64 // subthreshold slope ideality factor n
	I0N, I0P   float64 // subthreshold prefactor per unit width (A)

	DVthDT float64 // threshold shift per kelvin below 300 K (V/K)
	MobExp float64 // mobility ~ (300/T)^MobExp
	MobCap float64 // cap on the cryogenic mobility gain factor
	DVthN  float64 // additional NMOS threshold shift (aging/variation), volts
	DVthP  float64 // additional PMOS threshold shift (aging/variation), volts
}

// Default returns the baseline 5-nm-class technology parameters at the
// given temperature. The absolute values are synthetic but tuned so that a
// minimum inverter drives a 1 fF load in O(10 ps) at nominal 0.7 V.
func Default(tempK float64) Params {
	return Params{
		VDD:      0.70,
		TempK:    tempK,
		VthN:     0.25,
		VthP:     0.25,
		KN:       6.0e-4,
		KP:       3.0e-4,
		Alpha:    1.3,
		Lambda:   0.08,
		SSFactor: 1.35,
		I0N:      4.0e-7,
		I0P:      2.0e-7,
		DVthDT:   3.0e-4,
		MobExp:   0.9,
		MobCap:   2.5,
	}
}

// thermalV returns kT/q at the operating temperature.
func (p Params) thermalV() float64 {
	const kOverQ = 8.617333e-5 // V/K
	t := p.TempK
	if t < 1 {
		t = 1
	}
	return kOverQ * t
}

// vthN returns the effective NMOS threshold including temperature shift and
// the externally applied aging/variation delta.
func (p Params) vthN() float64 {
	return p.VthN + p.DVthDT*(300-p.TempK) + p.DVthN
}

func (p Params) vthP() float64 {
	return p.VthP + p.DVthDT*(300-p.TempK) + p.DVthP
}

// mobility returns the temperature mobility multiplier.
func (p Params) mobility() float64 {
	if p.TempK >= 300 {
		return math.Pow(300/p.TempK, p.MobExp)
	}
	m := math.Pow(300/p.TempK, p.MobExp)
	if m > p.MobCap {
		m = p.MobCap
	}
	return m
}

// idN returns the NMOS drain current for gate-source voltage vgs and
// drain-source voltage vds (both >= 0), for a device of the given width
// multiple. The model blends subthreshold exponential conduction with the
// alpha-power-law strong-inversion region.
func (p Params) idN(vgs, vds, width float64) float64 {
	return p.id(vgs, vds, width, p.vthN(), p.KN, p.I0N)
}

// idP returns the PMOS current with source at VDD: vsg = VDD - vg,
// vsd = VDD - vd, both magnitudes passed positive.
func (p Params) idP(vsg, vsd, width float64) float64 {
	return p.id(vsg, vsd, width, p.vthP(), p.KP, p.I0P)
}

func (p Params) id(vgs, vds, width, vth, k, i0 float64) float64 {
	if vds <= 0 {
		return 0
	}
	vT := p.thermalV()
	// Subthreshold current: exponential in (vgs - vth), saturating in vds.
	// The exponent is clamped at zero so the term tops out at the weak/
	// strong-inversion boundary instead of exploding above threshold.
	expArg := (vgs - vth) / (p.SSFactor * vT)
	if expArg > 0 {
		expArg = 0
	}
	sub := i0 * width * math.Exp(expArg) * (1 - math.Exp(-vds/vT))
	if vgs <= vth {
		return sub
	}
	vgst := vgs - vth
	mob := p.mobility()
	idsat := k * mob * width * math.Pow(vgst, p.Alpha) * (1 + p.Lambda*vds)
	vdsat := 0.5 * vgst
	if vds >= vdsat {
		return idsat + sub
	}
	x := vds / vdsat
	return idsat*(2-x)*x + sub
}
