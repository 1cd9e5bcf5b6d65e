// Package rf provides the analog RF substrate of the PoWiFi simulator:
// complex impedance arithmetic, single-stage LC matching-network analysis
// (the paper's §3.1 matching network), S11/return-loss computation (Fig. 9),
// and free-space radio propagation with antenna gains and wall materials
// (Figs. 11–13).
package rf

import (
	"math"
	"math/cmplx"
)

// Z0 is the reference system impedance in ohms. Wi-Fi antennas, like the
// 2 dBi Pulse antenna used by the paper's prototypes, present 50 Ω.
const Z0 = 50.0

// Impedance is a complex impedance in ohms (resistance + j·reactance).
type Impedance = complex128

// InductorImpedance returns the impedance j·ω·L of an ideal inductor of
// L henries at freqHz, plus an optional series loss resistance derived
// from the quality factor q (q <= 0 means lossless). The paper's 0402HP
// inductors have Q ≈ 100 at 2.45 GHz.
func InductorImpedance(l, freqHz, q float64) Impedance {
	xl := 2 * math.Pi * freqHz * l
	r := 0.0
	if q > 0 {
		r = xl / q
	}
	return complex(r, xl)
}

// CapacitorImpedance returns the impedance 1/(j·ω·C) of an ideal capacitor
// of C farads at freqHz, plus an optional equivalent series resistance from
// the quality factor q (q <= 0 means lossless).
func CapacitorImpedance(c, freqHz, q float64) Impedance {
	xc := 1 / (2 * math.Pi * freqHz * c)
	r := 0.0
	if q > 0 {
		r = xc / q
	}
	return complex(r, -xc)
}

// Parallel combines two impedances in parallel.
func Parallel(a, b Impedance) Impedance {
	den := a + b
	if den == 0 {
		return complex(math.Inf(1), 0)
	}
	return a * b / den
}

// ReflectionCoefficient returns Γ = (Z − Z0)/(Z + Z0) of a load Z against
// the reference impedance z0.
func ReflectionCoefficient(z Impedance, z0 float64) complex128 {
	return (z - complex(z0, 0)) / (z + complex(z0, 0))
}

// ReturnLossDB returns the return loss in dB of a load Z against z0, using
// the paper's sign convention (Fig. 9): 20·log10|Γ|, a negative number for
// any passive load, with more negative meaning better matched.
func ReturnLossDB(z Impedance, z0 float64) float64 {
	g := cmplx.Abs(ReflectionCoefficient(z, z0))
	if g <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(g)
}

// MismatchLossFraction returns the fraction of incident power delivered to
// the load (1 − |Γ|²). A −10 dB return loss delivers 90% of incident power,
// which the paper calls "less than 0.5 dB of lost power".
func MismatchLossFraction(z Impedance, z0 float64) float64 {
	g := cmplx.Abs(ReflectionCoefficient(z, z0))
	return 1 - g*g
}

// HighPassLSection is the paper's single-stage LC matching network in its
// high-pass orientation (Fig. 4): a series capacitor CT from the antenna
// into the rectifier node, with a shunt inductor LT from that node to
// ground. The shunt inductor both resonates out the rectifier's junction
// and pad capacitance and provides the doubler's DC return path; the
// series capacitor completes the transformation of the rectifier's
// kilohm-level input resistance down to 50 Ω. The paper's prototypes use a
// 6.8 nH Coilcraft 0402HP inductor (Q ≈ 100 at 2.45 GHz).
type HighPassLSection struct {
	SeriesC    float64 // farads, antenna side
	ShuntL     float64 // henries, across the rectifier input
	InductorQ  float64 // inductor quality factor
	CapacitorQ float64 // capacitor quality factor (0 = lossless)
}

// InputImpedance returns the impedance seen looking into the network
// from the antenna side when the rectifier presents load zLoad at
// freqHz: Zc + (Zl ∥ Zload).
func (n HighPassLSection) InputImpedance(zLoad Impedance, freqHz float64) Impedance {
	zl := InductorImpedance(n.ShuntL, freqHz, n.InductorQ)
	zc := CapacitorImpedance(n.SeriesC, freqHz, n.CapacitorQ)
	return zc + Parallel(zl, zLoad)
}

// ReturnLossDB returns the network's return loss against Z0 for the
// given rectifier load at freqHz.
func (n HighPassLSection) ReturnLossDB(zLoad Impedance, freqHz float64) float64 {
	return ReturnLossDB(n.InputImpedance(zLoad, freqHz), Z0)
}

// PowerTransferFraction returns the fraction of antenna-incident power
// that reaches the rectifier load at freqHz. Power accepted past the
// mismatch divides between the shunt inductor's ESR and the rectifier
// in proportion to their conductances. The shunt-inductor impedance is
// computed once and shared with the input-impedance expression (it is
// the same value InputImpedance derives; this sits on the operating-
// point hot path).
func (n HighPassLSection) PowerTransferFraction(zLoad Impedance, freqHz float64) float64 {
	zl := InductorImpedance(n.ShuntL, freqHz, n.InductorQ)
	zc := CapacitorImpedance(n.SeriesC, freqHz, n.CapacitorQ)
	zin := zc + Parallel(zl, zLoad)
	accepted := MismatchLossFraction(zin, Z0)
	if accepted < 0 {
		accepted = 0
	}
	gl := real(1 / zl)
	gload := real(1 / zLoad)
	if gl+gload <= 0 {
		return 0
	}
	return accepted * gload / (gl + gload)
}
