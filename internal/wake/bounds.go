package wake

import (
	"math"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/ocean"
)

// This file extends the per-point packet bounds of Signal.Bounds to whole
// axis-aligned regions, so a spatial index over node positions can discard
// entire buckets of provably-quiet nodes with a single evaluation (see
// geo.Index.QueryRegion and the source-layer wiring).
//
// The derivation mirrors Signal.Bounds. Over a rectangle, the along-track
// projection and the signed perpendicular distance to a sailing line are both
// affine in the observation point, so their extremes sit at the rectangle's
// corners. From the distance interval [dMin, dMax] follow intervals for the
// packet amplitude (largest at dMin), the envelope width σ (monotone in d),
// and — together with the projection interval — the wake-front arrival time.
// The interval form of the envelope/polynomial bound then uses, for each
// factor, the end of its interval that maximizes the product:
//
//	|accel| ≤ ampMax · env(ugBox; σHi) · poly(max(ugBox, 2σHi); σLo)
//	|slope| ≤ kMax · ampMax · env(ugBox; σHi)
//
// with ugBox the distance from the sample window to the *interval* of packet
// centers. env·poly is monotone decreasing for u ≥ 2σ, which makes the mixed
// σLo/σHi evaluation dominate every per-point bound; bounds_test.go verifies
// the domination property over randomized geometry.

// packetBoxBound carries interval bounds on a family of wake packets — one
// per observation point of a rectangle — in the same shape Signal.Bounds
// consumes point values.
type packetBoxBound struct {
	ampMax       float64 // max of Amp+TransAmp over the rectangle
	sigLo, sigHi float64 // envelope width range over the rectangle
	wMax         float64 // largest angular frequency of any packet
	kMax         float64 // largest slope wavenumber of any packet
	arrLo, arrHi float64 // wake-front arrival range over the rectangle
}

// bounds returns conservative upper bounds on |VerticalAccel| and |Slope|
// over the window [t0, t1] for every packet in the family.
func (b packetBoxBound) bounds(t0, t1 float64) (accel, slope float64) {
	if b.sigLo <= 0 {
		return 0, 0
	}
	// Every packet's center lies in [tcLo, tcHi].
	tcLo := b.arrLo + packetCenterLag*b.sigLo
	tcHi := b.arrHi + packetCenterLag*b.sigHi
	var ug float64 // distance from [t0, t1] to the center interval
	switch {
	case t1 < tcLo:
		ug = tcLo - t1
	case t0 > tcHi:
		ug = t0 - tcHi
	}
	s2lo := b.sigLo * b.sigLo
	s2hi := b.sigHi * b.sigHi
	ue, env := ug, 1.0
	if ug < 2*b.sigHi {
		ue = 2 * b.sigHi
	} else {
		env = math.Exp(-ug * ug / (2 * s2hi))
	}
	poly := ue*ue/(s2lo*s2lo) + 1/s2lo + b.wMax*b.wMax + 2*b.wMax*ue/s2lo
	accel = b.ampMax * env * poly
	slope = b.kMax * b.ampMax * math.Exp(-ug*ug/(2*s2hi))
	return accel, slope
}

// boxTrackRange returns the range of along-track projections and of
// perpendicular distances from the rectangle [min, max] to the track. Both
// the projection and the signed distance are affine over the plane, so their
// extremes are attained at the rectangle's corners; the distance interval
// collapses to zero at its low end when the track crosses the rectangle.
func boxTrackRange(track geo.Line, min, max geo.Vec2) (alongLo, alongHi, dMin, dMax float64) {
	corners := [4]geo.Vec2{min, {X: max.X, Y: min.Y}, max, {X: min.X, Y: max.Y}}
	sLo, sHi := math.Inf(1), math.Inf(-1)
	alongLo, alongHi = math.Inf(1), math.Inf(-1)
	for _, c := range corners {
		a := track.Project(c)
		alongLo = math.Min(alongLo, a)
		alongHi = math.Max(alongHi, a)
		s := track.SignedDist(c)
		sLo = math.Min(sLo, s)
		sHi = math.Max(sHi, s)
	}
	dMax = math.Max(math.Abs(sLo), math.Abs(sHi))
	if sLo <= 0 && sHi >= 0 {
		dMin = 0
	} else {
		dMin = math.Min(math.Abs(sLo), math.Abs(sHi))
	}
	return alongLo, alongHi, dMin, dMax
}

// BoundsBox returns conservative upper bounds on the wake's |VerticalAccel|
// and |Slope| over the window [t0, t1] for every observation point inside
// the rectangle [min, max]: for all p in the box, Bounds(p, t0, t1) is
// dominated componentwise. It implements sensor.RegionBoundedModel so the
// source layer's spatial index can skip whole buckets of nodes per block.
//
// Per covering leg, the projection/distance intervals come from the
// rectangle's corners, the generation-speed interval from the (monotone)
// leg kinematics over the foot range (clamped to the leg unless it is
// open), and the frequency/wavenumber extremes from the slow end of that
// interval — the phase speed V·cosΘ(V) grows with V, so the observed
// frequency and wavenumber peak at the minimum generation speed.
// Amplitude and envelope width use the decay-clamped distance, exactly as
// signalFor does; the arrival geometry uses the raw distance, exactly as
// legSignal does. Contributions of all possibly-covering legs add, as in
// Bounds.
func (f ManeuverField) BoundsBox(min, max geo.Vec2, t0, t1 float64) (accel, slope float64) {
	m := f.M
	tanK := math.Tan(KelvinHalfAngle)
	for _, l := range m.legs {
		alongLo, alongHi, dMin, dMax := boxTrackRange(l.track, min, max)
		sLo, sHi := alongLo, alongHi
		if !l.open {
			if alongHi < 0 || alongLo > l.length {
				continue // no point of the box has its perpendicular foot on this leg
			}
			sLo = math.Max(alongLo, 0)
			sHi = math.Min(alongHi, l.length)
		}
		vA, vB := l.speedAtS(sLo), l.speedAtS(sHi)
		vMin, vMax := math.Min(vA, vB), math.Max(vA, vB)
		dLo := math.Max(dMin, MinDecayDistance)
		dHi := math.Max(dMax, MinDecayDistance)
		coeff := m.WaveCoeff * vMax / refSpeed
		theta := thetaFor(vMin, m.Length)
		divFreq := ocean.FreqForPhaseSpeed(vMin * math.Cos(theta))
		transFreq := ocean.FreqForPhaseSpeed(vMin)
		b := packetBoxBound{
			ampMax: coeff*math.Pow(dLo, -1.0/3.0)/2 + coeff*math.Pow(dLo, -0.5)/2*transverseWeight,
			sigLo:  m.BaseDuration * math.Pow(dLo/25.0, 0.25) / 2,
			sigHi:  m.BaseDuration * math.Pow(dHi/25.0, 0.25) / 2,
			wMax:   2 * math.Pi * math.Max(divFreq, transFreq),
			kMax:   ocean.WavenumberFor(divFreq),
			arrLo:  l.timeAtS(sLo + dMin/tanK),
			arrHi:  l.timeAtS(sHi + dMax/tanK),
		}
		a, sl := b.bounds(t0, t1)
		accel += a
		slope += sl
	}
	return accel, slope
}
