// Package wake models the V-shaped Kelvin wake a moving ship leaves on deep
// water — the physical phenomenon SID detects (§II of the paper). It stands
// in for the paper's real ship passes (a fishing boat at 10 and 16 knots).
//
// The model implements the published relations the paper builds on:
//
//   - Kelvin geometry: the cusp locus trails the ship at 19°28′ from the
//     sailing line regardless of ship size or speed; diverging wave crests
//     meet the cusp locus at 54°44′.
//   - Decay (eq. 1): the maximum wave height of the divergent (cusp) waves
//     decays as Hm = c·d^(−1/3) with distance d from the sailing line;
//     transverse waves decay faster, as d^(−1/2), so only divergent waves
//     are observable far from the vessel.
//   - Wake wave speed (eq. 2): W_v = V·cosΘ with
//     Θ = 35.27°·(1 − e^{12(F_d − 1)}), F_d the ship's Froude number.
//   - Finite duration: at a fixed point the wake is a short train of waves
//     (2–3 s at 25 m in the paper's observation), modeled as a
//     Gaussian-enveloped packet whose width grows slowly with distance
//     (frequency dispersion).
package wake

import (
	"fmt"
	"math"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/ocean"
)

// Kelvin wake geometry constants.
var (
	// KelvinHalfAngle is the half-angle of the wake V: 19°28′.
	KelvinHalfAngle = geo.Deg(19 + 28.0/60)
	// CuspCrestAngle is the angle between the sailing line and the
	// diverging wave crests at the cusp locus: 54°44′.
	CuspCrestAngle = geo.Deg(54 + 44.0/60)
	// ThetaMax is the 35.27° factor in the wake wave speed equation.
	ThetaMax = geo.Deg(35.27)
)

// Ship is a vessel moving at constant speed along a sailing line.
type Ship struct {
	// Track is the directed sailing line.
	Track geo.Line
	// Speed is the ship speed V in m/s. Must be positive.
	Speed float64
	// Time0 is the simulation time at which the ship is at Track.Origin.
	Time0 float64
	// Length is the waterline hull length in meters, used for the Froude
	// number. Must be positive.
	Length float64
	// WaveCoeff is c in eq. (1), Hm = c·d^(−1/3), in m^(4/3). It captures
	// hull shape and speed-dependent wave-making; 1.5 yields ~0.5 m cusp
	// value for a small planing fishing boat.
	WaveCoeff float64
	// BaseDuration is the wave-train duration observed at the reference
	// distance of 25 m, in seconds (the paper observed 2–3 s; default 2.5).
	BaseDuration float64
}

// NewShip validates and returns a ship. Zero WaveCoeff defaults to 1.5 and
// zero BaseDuration to 2.5 s.
func NewShip(track geo.Line, speed, length float64) (*Ship, error) {
	if speed <= 0 {
		return nil, fmt.Errorf("wake: ship speed must be positive, got %g", speed)
	}
	if length <= 0 {
		return nil, fmt.Errorf("wake: ship length must be positive, got %g", length)
	}
	return &Ship{
		Track:        track,
		Speed:        speed,
		Length:       length,
		WaveCoeff:    1.5,
		BaseDuration: 2.5,
	}, nil
}

// CrossingShip builds the standard intruder geometry: a ship sailing a
// straight line whose wake front reaches center at time crossAt. The
// heading is in degrees from the +X (grid row) axis — 0 defaults to 90, a
// perpendicular crossing — offsetM shifts the sailing line sideways from
// center, and lengthM is the hull length (0 defaults to 12 m). The track
// starts 1 km before the center so the approach is fully off-field. This
// is the single source of the facade's AddIntruder geometry; the serving
// layer's feed builders reuse it so a served intruder is exactly the
// library's.
func CrossingShip(center geo.Vec2, speedKnots, headingDeg, offsetM, crossAt, lengthM float64) (*Ship, error) {
	if speedKnots <= 0 {
		return nil, fmt.Errorf("wake: intruder speed must be positive, got %g", speedKnots)
	}
	if lengthM == 0 {
		lengthM = 12
	}
	heading := geo.Deg(headingDeg)
	if headingDeg == 0 {
		heading = geo.Deg(90) // default: perpendicular crossing
	}
	dir := geo.Vec2{X: math.Cos(heading), Y: math.Sin(heading)}
	normal := geo.Vec2{X: -dir.Y, Y: dir.X}
	origin := center.Add(normal.Scale(offsetM)).Sub(dir.Scale(1000))
	ship, err := NewShip(geo.NewLine(origin, dir), geo.Knots(speedKnots), lengthM)
	if err != nil {
		return nil, err
	}
	ship.SetArrival(center, crossAt)
	return ship, nil
}

// Position returns the ship position at time t.
func (s *Ship) Position(t float64) geo.Vec2 {
	return s.Track.At(s.Speed * (t - s.Time0))
}

// thetaFor returns Θ = 35.27°·(1 − e^{12(F_d−1)}) in radians (eq. 2) for a
// hull of the given length at the given speed, clamped to [0, 35.27°] for
// super-critical Froude numbers. Shared by Ship and Maneuver so a vessel's
// wake signature shifts consistently with its speed regime.
func thetaFor(speed, length float64) float64 {
	fd := speed / math.Sqrt(ocean.Gravity*length)
	th := ThetaMax * (1 - math.Exp(12*(fd-1)))
	if th < 0 {
		th = 0
	}
	return th
}

// Theta returns Θ = 35.27°·(1 − e^{12(F_d−1)}) in radians (eq. 2), clamped
// to [0, 35.27°] for super-critical Froude numbers.
func (s *Ship) Theta() float64 {
	return thetaFor(s.Speed, s.Length)
}

// WakeWaveSpeed returns W_v = V·cosΘ (eq. 2), the propagation speed of the
// divergent wake waves.
func (s *Ship) WakeWaveSpeed() float64 {
	return s.Speed * math.Cos(s.Theta())
}

// WakeFreq returns the frequency (Hz) of the divergent wake waves observed
// at a fixed point: the deep-water wave whose phase speed equals the wake
// wave speed. For small craft this lands in the 0.3–1 Hz band, above the
// swell peak but below the node's 1 Hz low-pass cutoff — the spectral
// signature of Figs. 6 and 7.
func (s *Ship) WakeFreq() float64 {
	return ocean.FreqForPhaseSpeed(s.WakeWaveSpeed())
}

// refSpeed is the speed at which WaveCoeff applies directly; the paper's
// eq. (1) notes c is "a parameter related to the speed of the passing
// ship", and wake height grows roughly linearly with speed in the
// semi-planing regime of small craft, so the effective coefficient is
// WaveCoeff·(V/refSpeed).
const refSpeed = 5.0

// MinDecayDistance clamps the decay laws' singularity at the sailing line
// (meters).
const MinDecayDistance = 2.0

// ArrivalTime returns the time at which the wake front (the cusp locus
// line trailing the ship at the Kelvin half-angle) sweeps the point p.
// The front passes p when the ship is d/tan(19°28′) beyond p's projection
// onto the sailing line.
func (s *Ship) ArrivalTime(p geo.Vec2) float64 {
	along := s.Track.Project(p)
	d := s.Track.Dist(p)
	lead := d / math.Tan(KelvinHalfAngle)
	return s.Time0 + (along+lead)/s.Speed
}

// SetArrival sets Time0 so that the wake front sweeps p at time t, which
// shifts the ship along its track and changes nothing else.
func (s *Ship) SetArrival(p geo.Vec2, t float64) {
	s.Time0 = t - (s.ArrivalTime(p) - s.Time0)
}

// Signal is the deterministic wake packet observed at one fixed point: a
// Gaussian-enveloped wave train for the divergent (cusp) waves plus a
// faster-decaying transverse component.
type Signal struct {
	// Arrival is the wake-front arrival time at the point (seconds).
	Arrival float64
	// Amp is the divergent-wave amplitude (half of Hm) in meters.
	Amp float64
	// TransAmp is the transverse-wave amplitude in meters.
	TransAmp float64
	// Freq is the divergent wave frequency in Hz.
	Freq float64
	// TransFreq is the transverse wave frequency in Hz.
	TransFreq float64
	// Sigma is the Gaussian envelope width in seconds.
	Sigma float64
}

// SignalAt precomputes the wake packet parameters for point p.
func (s *Ship) SignalAt(p geo.Vec2) Signal {
	return signalFor(s.Speed, s.Length, s.WaveCoeff, s.BaseDuration,
		s.Track.Dist(p), s.ArrivalTime(p))
}

// Wake returns the ship's wake as a surface model: a one-leg maneuver
// whose open leg is the ship's whole sailing line, so every point sees
// exactly SignalAt's packet. It copies the ship's fields, so call it after
// setting Time0.
func (s *Ship) Wake() ManeuverField {
	return ManeuverField{M: &Maneuver{
		Length:       s.Length,
		WaveCoeff:    s.WaveCoeff,
		BaseDuration: s.BaseDuration,
		legs: []leg{{
			track:  s.Track,
			length: math.Inf(1),
			t0:     s.Time0,
			t1:     math.Inf(1),
			v0:     s.Speed,
			v1:     s.Speed,
			last:   true,
			open:   true,
		}},
	}}
}

// signalFor assembles the wake packet observed at perpendicular distance d
// from the sailing line, arriving at the given time, for a hull of the
// given length generating the wake at the given speed. It is the single
// formula behind Ship.SignalAt and the per-leg packets of a Maneuver.
func signalFor(speed, length, waveCoeff, baseDuration, d, arrival float64) Signal {
	if d < MinDecayDistance {
		d = MinDecayDistance
	}
	coeff := waveCoeff * speed / refSpeed
	theta := thetaFor(speed, length)
	dur := baseDuration * math.Pow(d/25.0, 0.25)
	return Signal{
		Arrival:   arrival,
		Amp:       coeff * math.Pow(d, -1.0/3.0) / 2,
		TransAmp:  coeff * math.Pow(d, -0.5) / 2 * transverseWeight,
		Freq:      ocean.FreqForPhaseSpeed(speed * math.Cos(theta)),
		TransFreq: ocean.FreqForPhaseSpeed(speed),
		Sigma:     dur / 2,
	}
	// The envelope width σ = duration/2 puts ~95% of the packet energy
	// within ±duration of the center.
}

// transverseWeight scales the transverse contribution relative to the
// divergent waves; transverse waves are weaker at the cusp observation
// points (the paper: "only divergent waves can be observed far from the
// vessel").
const transverseWeight = 0.4

// packetCenterLag places the packet center this many σ after the front
// arrival, so the envelope onset coincides with the front.
const packetCenterLag = 1.5

// Elevation returns the wake's surface-elevation contribution at time t.
func (g Signal) Elevation(t float64) float64 {
	u := t - (g.Arrival + packetCenterLag*g.Sigma)
	if g.Sigma <= 0 {
		return 0
	}
	env := math.Exp(-u * u / (2 * g.Sigma * g.Sigma))
	e := g.Amp * env * math.Cos(2*math.Pi*g.Freq*u)
	e += g.TransAmp * env * math.Cos(2*math.Pi*g.TransFreq*u)
	return e
}

// VerticalAccel returns the exact second time derivative of Elevation,
// i.e. the vertical acceleration a surface-following buoy experiences from
// the wake packet.
func (g Signal) VerticalAccel(t float64) float64 {
	if g.Sigma <= 0 {
		return 0
	}
	u := t - (g.Arrival + packetCenterLag*g.Sigma)
	s2 := g.Sigma * g.Sigma
	env := math.Exp(-u * u / (2 * s2))
	envD1 := -u / s2            // g'/g
	envD2 := u*u/(s2*s2) - 1/s2 // g''/g
	acc := 0.0
	for _, c := range [2]struct{ amp, freq float64 }{{g.Amp, g.Freq}, {g.TransAmp, g.TransFreq}} {
		w := 2 * math.Pi * c.freq
		cos, sin := math.Cos(w*u), math.Sin(w*u)
		// d²/dt² [env·cos(wu)] = env·[(g''/g − w²)·cos − 2w·(g'/g)·sin]
		acc += c.amp * env * ((envD2-w*w)*cos - 2*w*envD1*sin)
	}
	return acc
}

// Bounds returns conservative upper bounds on |VerticalAccel| (given the
// wavenumber k the slope model uses) and |Slope| over the window [t0, t1].
// The packet is a Gaussian envelope times bounded oscillations, so
//
//	|accel| ≤ (Amp+TransAmp) · env(u) · (u²/σ⁴ + 1/σ² + ω² + 2ωu/σ²)
//	|slope| ≤ k · (Amp+TransAmp) · env(u)
//
// with u the distance from the packet center and ω the larger angular
// frequency. env·poly is monotone decreasing for u ≥ 2σ, so the bound is
// evaluated at the window edge nearest the center; windows closer than 2σ
// get env = 1 and the polynomial at 2σ, which dominates the whole inner
// region. The sensor layer uses this to cull wake evaluation per block
// (see sensor.BoundedModel); wake_test.go verifies the bound dominates the
// exact signal across the packet.
func (g Signal) Bounds(t0, t1, k float64) (accel, slope float64) {
	if g.Sigma <= 0 {
		return 0, 0
	}
	tc := g.Arrival + packetCenterLag*g.Sigma
	var ug float64 // distance from [t0, t1] to the packet center
	switch {
	case t1 < tc:
		ug = tc - t1
	case t0 > tc:
		ug = t0 - tc
	}
	s2 := g.Sigma * g.Sigma
	ampSum := g.Amp + g.TransAmp
	wmax := 2 * math.Pi * math.Max(g.Freq, g.TransFreq)
	ue, env := ug, 1.0
	if ug < 2*g.Sigma {
		ue = 2 * g.Sigma
	} else {
		env = math.Exp(-ug * ug / (2 * s2))
	}
	poly := ue*ue/(s2*s2) + 1/s2 + wmax*wmax + 2*wmax*ue/s2
	accel = ampSum * env * poly
	slope = k * ampSum * math.Exp(-ug*ug/(2*s2))
	return accel, slope
}
