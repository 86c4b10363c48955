package wake

import (
	"fmt"
	"math"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/ocean"
)

// Waypoint is one vertex of a piecewise-linear vessel trajectory together
// with the speed the vessel holds as it passes that vertex. Between two
// waypoints the vessel accelerates uniformly, so speed ramps linearly in
// time from one waypoint's value to the next.
type Waypoint struct {
	Pos geo.Vec2
	// Speed is the vessel speed at this waypoint in m/s. Must be positive
	// (the wake model has no meaning for a stationary or reversing hull).
	Speed float64
}

// Maneuver is a vessel following a waypoint trajectory: straight legs with
// per-leg constant acceleration. It generalizes Ship (one infinite leg at
// constant speed) to the multi-leg, accelerating intruders of the scenario
// engine: a vessel enters at its first waypoint at a given time, sails each
// leg in turn, and vanishes past the last waypoint (it has left the area).
//
// The wake of each leg is the same Gaussian-enveloped Kelvin packet as
// Ship's, with the packet parameters taken from the speed the vessel had
// when it generated the wake observed at a point — so an accelerating
// ship's wake frequency and amplitude shift along its track exactly as the
// Froude-number relations (eqs. 1–2) prescribe. Wakes of concurrent legs
// and of concurrent vessels superpose linearly (the elevation fields add),
// which is how the scenario engine composes multi-ship trials.
type Maneuver struct {
	// Length is the waterline hull length in meters (Froude number).
	Length float64
	// WaveCoeff is c in eq. (1); see Ship.WaveCoeff.
	WaveCoeff float64
	// BaseDuration is the wave-train duration at 25 m; see Ship.
	BaseDuration float64

	legs []leg
}

// leg is one straight trajectory segment with constant acceleration.
type leg struct {
	track  geo.Line // directed from leg start to leg end
	length float64  // meters along track
	t0, t1 float64  // absolute times at leg start and end
	v0, v1 float64  // speeds at leg start and end
	accel  float64  // (v1−v0)/(t1−t0)
	last   bool
	// open marks a leg that is a whole sailing line (Ship.Wake): it
	// covers feet before its start as well as after, and has infinite
	// length, zero acceleration and t1 = +Inf.
	open bool
}

// NewManeuver validates and builds a maneuver: the vessel is at wps[0] at
// time enterAt and sails the waypoints in order. At least two waypoints are
// required, consecutive waypoints must be distinct, and every speed must be
// positive. Leg durations follow from the uniform-acceleration kinematics
// T = 2L/(v0+v1). Hull length must be positive; zero WaveCoeff defaults to
// 1.5 and zero BaseDuration to 2.5 s, as for Ship.
func NewManeuver(enterAt, length float64, wps []Waypoint) (*Maneuver, error) {
	if length <= 0 {
		return nil, fmt.Errorf("wake: maneuver hull length must be positive, got %g", length)
	}
	if len(wps) < 2 {
		return nil, fmt.Errorf("wake: maneuver needs at least 2 waypoints, got %d", len(wps))
	}
	m := &Maneuver{Length: length, WaveCoeff: 1.5, BaseDuration: 2.5}
	t := enterAt
	for i := 0; i+1 < len(wps); i++ {
		a, b := wps[i], wps[i+1]
		if a.Speed <= 0 || b.Speed <= 0 {
			return nil, fmt.Errorf("wake: waypoint speeds must be positive, got %g, %g", a.Speed, b.Speed)
		}
		dist := a.Pos.Dist(b.Pos)
		if dist == 0 {
			return nil, fmt.Errorf("wake: waypoints %d and %d coincide at %v", i, i+1, a.Pos)
		}
		dur := 2 * dist / (a.Speed + b.Speed)
		m.legs = append(m.legs, leg{
			track:  geo.LineThrough(a.Pos, b.Pos),
			length: dist,
			t0:     t, t1: t + dur,
			v0: a.Speed, v1: b.Speed,
			accel: (b.Speed - a.Speed) / dur,
		})
		t += dur
	}
	m.legs[len(m.legs)-1].last = true
	return m, nil
}

// EnterAt returns the time the vessel is at its first waypoint.
func (m *Maneuver) EnterAt() float64 { return m.legs[0].t0 }

// ExitAt returns the time the vessel reaches its last waypoint.
func (m *Maneuver) ExitAt() float64 { return m.legs[len(m.legs)-1].t1 }

// sAt returns the distance sailed along the leg at absolute time t.
func (l leg) sAt(t float64) float64 {
	tau := t - l.t0
	return l.v0*tau + 0.5*l.accel*tau*tau
}

// speedAtS returns the vessel speed after sailing s meters of the leg
// (v² = v0² + 2as). s is clamped to the leg, so the result lies between
// v0 and v1.
func (l leg) speedAtS(s float64) float64 {
	if s < 0 {
		s = 0
	}
	if s > l.length {
		s = l.length
	}
	v2 := l.v0*l.v0 + 2*l.accel*s
	if v2 <= 0 {
		return math.Min(l.v0, l.v1)
	}
	return math.Sqrt(v2)
}

// timeAtS returns the absolute time the vessel is s meters along the leg.
// Positions past the leg end extrapolate at the leg's exit speed — used for
// wake-front arrivals whose lead distance extends beyond the leg (the waves
// were generated on the leg; the front keeps sweeping outward after the
// vessel has turned or left).
func (l leg) timeAtS(s float64) float64 {
	if s > l.length {
		return l.t1 + (s-l.length)/l.v1
	}
	if math.Abs(l.accel) < 1e-12 {
		return l.t0 + s/l.v0
	}
	// The admissible root of v0·τ + a·τ²/2 = s on [t0, t1].
	v2 := l.v0*l.v0 + 2*l.accel*s
	if v2 < 0 {
		v2 = 0
	}
	return l.t0 + (math.Sqrt(v2)-l.v0)/l.accel
}

// legAt returns the leg active at time t, clamping before entry and after
// exit.
func (m *Maneuver) legAt(t float64) leg {
	for _, l := range m.legs {
		if t < l.t1 || l.last {
			return l
		}
	}
	return m.legs[len(m.legs)-1]
}

// Position returns the vessel position at time t, clamped to the trajectory
// endpoints before entry and after exit.
func (m *Maneuver) Position(t float64) geo.Vec2 {
	l := m.legAt(t)
	if t <= l.t0 {
		return l.track.Origin
	}
	s := l.sAt(math.Min(t, l.t1))
	if s > l.length {
		s = l.length
	}
	return l.track.At(s)
}

// SpeedAt returns the vessel speed at time t (clamped to the trajectory).
func (m *Maneuver) SpeedAt(t float64) float64 {
	l := m.legAt(t)
	return l.speedAtS(l.sAt(math.Min(math.Max(t, l.t0), l.t1)))
}

// legSignal returns the wake packet the leg contributes at p. A leg
// contributes iff the perpendicular foot of p falls within it — the segment
// of track that generated the divergent waves observed at p; an open leg
// (Ship.Wake) covers every point. Legs partition the trajectory half-open
// ([0, length) except the last, which includes its end), so a collinear
// chain of legs covers each point exactly once. Near a turn a point can see
// the wakes of both adjoining legs, or neither — wake caustics and shadow
// sectors, the price of the piecewise model.
//
// The packet parameters use the speed the vessel had at the foot (the
// generation speed); the front arrival extrapolates the leg's kinematics to
// the cusp-locus lead position, per ArrivalTime's geometry.
func (m *Maneuver) legSignal(l leg, p geo.Vec2) (Signal, bool) {
	s := l.track.Project(p)
	if !l.open && (s < 0 || s > l.length || (s == l.length && !l.last)) {
		return Signal{}, false
	}
	d := l.track.Dist(p)
	v := l.speedAtS(s)
	lead := d / math.Tan(KelvinHalfAngle)
	arrival := l.timeAtS(s + lead)
	return signalFor(v, m.Length, m.WaveCoeff, m.BaseDuration, d, arrival), true
}

// ArrivalTime returns the earliest wake-front arrival at p over the legs
// that cover p, and whether any leg covers it at all (a point beyond the
// trajectory's lateral extent, or in a turn's shadow sector, sees no wake).
func (m *Maneuver) ArrivalTime(p geo.Vec2) (float64, bool) {
	t, ok := math.Inf(1), false
	for _, l := range m.legs {
		if sig, covered := m.legSignal(l, p); covered {
			ok = true
			if sig.Arrival < t {
				t = sig.Arrival
			}
		}
	}
	return t, ok
}

// GenerationSpeed returns the vessel speed that generated the wake observed
// at p (the speed at the perpendicular foot of the earliest covering leg),
// and whether p is covered. This is the ground truth a speed estimator
// should be scored against for an accelerating vessel.
func (m *Maneuver) GenerationSpeed(p geo.Vec2) (float64, bool) {
	best, speed, ok := math.Inf(1), 0.0, false
	for _, l := range m.legs {
		sig, covered := m.legSignal(l, p)
		if !covered {
			continue
		}
		if sig.Arrival < best {
			best = sig.Arrival
			speed = l.speedAtS(l.track.Project(p))
			ok = true
		}
	}
	return speed, ok
}

// GenerationHeading returns the sailing direction of the leg whose wake
// arrives first at p, and whether p is covered.
func (m *Maneuver) GenerationHeading(p geo.Vec2) (geo.Vec2, bool) {
	best, dir, ok := math.Inf(1), geo.Vec2{}, false
	for _, l := range m.legs {
		sig, covered := m.legSignal(l, p)
		if !covered {
			continue
		}
		if sig.Arrival < best {
			best = sig.Arrival
			dir = l.track.Dir
			ok = true
		}
	}
	return dir, ok
}

// ManeuverField adapts a Maneuver into a surface-motion source — the one
// wake model, behind both waypoint maneuvers and Ship.Wake. Contributions
// of all covering legs add — the linear superposition that also composes
// concurrent vessels.
//
// ManeuverField deliberately implements no batched sensor path, so
// sensor.SampleBlock evaluates it per sample at the exact drifted buoy
// position. The ambient sea's batched path approximates the drift within a
// block, which is harmless for its statistics; the wake packet's arrival
// phase at a drifting buoy sets the onset times the four-node speed
// estimator consumes, so it stays exact. The wake is one packet
// evaluation per covering leg and sample, so the exact path costs little.
type ManeuverField struct {
	M *Maneuver
}

// Elevation returns the summed wake elevation contribution at p and t.
func (f ManeuverField) Elevation(p geo.Vec2, t float64) float64 {
	var e float64
	for _, l := range f.M.legs {
		if sig, ok := f.M.legSignal(l, p); ok {
			e += sig.Elevation(t)
		}
	}
	return e
}

// VerticalAccel returns the summed wake vertical acceleration at p and t.
func (f ManeuverField) VerticalAccel(p geo.Vec2, t float64) float64 {
	var a float64
	for _, l := range f.M.legs {
		if sig, ok := f.M.legSignal(l, p); ok {
			a += sig.VerticalAccel(t)
		}
	}
	return a
}

// Bounds implements sensor.BoundedModel: the sum of every covering leg's
// packet bounds over [t0, t1] (superposition bounds superpose), with each
// leg's slope bound using that leg's generation-speed wavenumber exactly as
// Slope does.
func (f ManeuverField) Bounds(p geo.Vec2, t0, t1 float64) (accel, slope float64) {
	for _, l := range f.M.legs {
		sig, ok := f.M.legSignal(l, p)
		if !ok {
			continue
		}
		v := l.speedAtS(l.track.Project(p))
		theta := thetaFor(v, f.M.Length)
		k := ocean.WavenumberFor(ocean.FreqForPhaseSpeed(v * math.Cos(theta)))
		a, s := sig.Bounds(t0, t1, k)
		accel += a
		slope += s
	}
	return accel, slope
}

// Slope returns the wake-induced surface slope at p and t, summing each
// covering leg's contribution along its own away-from-track normal. The
// packet model is point-local, so the slope is approximated as k·η along
// that normal, with k the wavenumber of the leg's divergent waves.
func (f ManeuverField) Slope(p geo.Vec2, t float64) geo.Vec2 {
	var out geo.Vec2
	for _, l := range f.M.legs {
		sig, ok := f.M.legSignal(l, p)
		if !ok {
			continue
		}
		normal := geo.Vec2{X: -l.track.Dir.Y, Y: l.track.Dir.X}
		if l.track.SignedDist(p) < 0 {
			normal = normal.Scale(-1)
		}
		v := l.speedAtS(l.track.Project(p))
		theta := thetaFor(v, f.M.Length)
		k := ocean.WavenumberFor(ocean.FreqForPhaseSpeed(v * math.Cos(theta)))
		out = out.Add(normal.Scale(k * sig.Elevation(t)))
	}
	return out
}
