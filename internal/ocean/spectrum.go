// Package ocean synthesizes the wind-driven ocean-wave environment the SID
// buoys float in. It stands in for the paper's sea-trial environment (the
// proprietary traces the repro band flags): a directional random sea built
// from a parametric wave spectrum, from which surface elevation, slope, and
// the vertical acceleration measured by a surface-following buoy can be
// evaluated at any point and time.
//
// The model is linear (Airy) wave superposition in deep water:
//
//	η(x, t)  = Σᵢ aᵢ·cos(kᵢ·x − ωᵢt + φᵢ)
//	η̈(x, t) = −Σᵢ aᵢωᵢ²·cos(kᵢ·x − ωᵢt + φᵢ)
//
// with ω² = g·k and component amplitudes drawn from a Pierson–Moskowitz or
// JONSWAP spectrum with cosine-power directional spreading.
package ocean

import (
	"fmt"
	"math"
)

// Gravity is the standard gravitational acceleration in m/s².
const Gravity = 9.81

// Spectrum is a one-dimensional wave-energy spectral density S(f) in m²/Hz.
type Spectrum interface {
	// Density returns S(f) at frequency f in Hz.
	Density(f float64) float64
	// PeakFreq returns the modal (peak) frequency in Hz.
	PeakFreq() float64
}

// PiersonMoskowitz is the fully-developed-sea spectrum in its
// significant-wave-height parametrization (Bretschneider form):
//
//	S(f) = (5/16)·Hs²·fp⁴·f⁻⁵·exp(−(5/4)·(fp/f)⁴)
type PiersonMoskowitz struct {
	// Hs is the significant wave height in meters.
	Hs float64
	// Tp is the peak wave period in seconds.
	Tp float64
}

// NewPiersonMoskowitz validates the parameters.
func NewPiersonMoskowitz(hs, tp float64) (*PiersonMoskowitz, error) {
	if hs <= 0 || tp <= 0 {
		return nil, fmt.Errorf("ocean: Hs and Tp must be positive, got %g, %g", hs, tp)
	}
	return &PiersonMoskowitz{Hs: hs, Tp: tp}, nil
}

// Density implements Spectrum.
func (s *PiersonMoskowitz) Density(f float64) float64 {
	if f <= 0 {
		return 0
	}
	fp := 1 / s.Tp
	r := fp / f
	r4 := r * r * r * r
	// fp⁴·f⁻⁵ is written as (fp/f)⁴/f to avoid overflow for tiny f.
	return (5.0 / 16.0) * s.Hs * s.Hs * (r4 / f) * math.Exp(-1.25*r4)
}

// PeakFreq implements Spectrum.
func (s *PiersonMoskowitz) PeakFreq() float64 { return 1 / s.Tp }

// JONSWAP is the fetch-limited sea spectrum: Pierson–Moskowitz with a peak
// enhancement factor γ^b. γ = 3.3 is the mean North Sea value.
type JONSWAP struct {
	Hs, Tp float64
	// Gamma is the peak-enhancement factor (1 reduces to PM; default 3.3).
	Gamma float64
}

// NewJONSWAP validates the parameters; gamma <= 0 selects the default 3.3.
func NewJONSWAP(hs, tp, gamma float64) (*JONSWAP, error) {
	if hs <= 0 || tp <= 0 {
		return nil, fmt.Errorf("ocean: Hs and Tp must be positive, got %g, %g", hs, tp)
	}
	if gamma <= 0 {
		gamma = 3.3
	}
	return &JONSWAP{Hs: hs, Tp: tp, Gamma: gamma}, nil
}

// Density implements Spectrum. The spectrum is normalized so that the
// integral matches Hs²/16 (the variance of a sea with significant wave
// height Hs) to within the accuracy of the standard normalization factor.
func (s *JONSWAP) Density(f float64) float64 {
	if f <= 0 {
		return 0
	}
	fp := 1 / s.Tp
	sigma := 0.07
	if f > fp {
		sigma = 0.09
	}
	r := fp / f
	r4 := r * r * r * r
	pm := (5.0 / 16.0) * s.Hs * s.Hs * (r4 / f) * math.Exp(-1.25*r4)
	d := (f - fp) / (sigma * fp)
	b := math.Exp(-0.5 * d * d)
	// Goda's normalization keeps total energy ≈ Hs²/16 as γ varies.
	norm := 1 - 0.287*math.Log(s.Gamma)
	return norm * pm * math.Pow(s.Gamma, b)
}

// PeakFreq implements Spectrum.
func (s *JONSWAP) PeakFreq() float64 { return 1 / s.Tp }

// Deep-water dispersion helpers.

// WavenumberFor returns k = (2πf)²/g for deep water.
func WavenumberFor(f float64) float64 {
	w := 2 * math.Pi * f
	return w * w / Gravity
}

// FreqForPhaseSpeed returns the frequency of the deep-water wave whose phase
// speed is c = g/(2πf).
func FreqForPhaseSpeed(c float64) float64 {
	if c <= 0 {
		return 0
	}
	return Gravity / (2 * math.Pi * c)
}
