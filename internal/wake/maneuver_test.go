package wake

import (
	"math"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
)

// A finite single-leg maneuver at constant speed must reproduce the ship's
// open leg (Ship.Wake) on the stretch it covers: same arrival, same packet,
// same field samples.
func TestManeuverMatchesShipOnConstantLeg(t *testing.T) {
	track := geo.LineThrough(geo.Vec2{X: -50, Y: 30}, geo.Vec2{X: 450, Y: 80})
	ship, err := NewShip(track, 6.0, 12)
	if err != nil {
		t.Fatal(err)
	}
	ship.Time0 = 40

	m, err := NewManeuver(40, 12, []Waypoint{
		{Pos: geo.Vec2{X: -50, Y: 30}, Speed: 6.0},
		{Pos: geo.Vec2{X: 450, Y: 80}, Speed: 6.0},
	})
	if err != nil {
		t.Fatal(err)
	}

	points := []geo.Vec2{
		{X: 0, Y: 90}, {X: 100, Y: -10}, {X: 200, Y: 120}, {X: 330, Y: 60},
	}
	for _, p := range points {
		want := ship.SignalAt(p)
		at, ok := m.ArrivalTime(p)
		if !ok {
			t.Fatalf("maneuver does not cover %v", p)
		}
		if math.Abs(at-want.Arrival) > 1e-9 {
			t.Errorf("arrival at %v: maneuver %g, ship %g", p, at, want.Arrival)
		}
		sf, ff := ship.Wake(), ManeuverField{M: m}
		for _, tm := range []float64{want.Arrival - 3, want.Arrival, want.Arrival + 4, want.Arrival + 9} {
			if a, b := sf.VerticalAccel(p, tm), ff.VerticalAccel(p, tm); math.Abs(a-b) > 1e-9 {
				t.Errorf("accel at %v t=%g: ship %g, maneuver %g", p, tm, a, b)
			}
			if a, b := sf.Elevation(p, tm), ff.Elevation(p, tm); math.Abs(a-b) > 1e-9 {
				t.Errorf("elevation at %v t=%g: ship %g, maneuver %g", p, tm, a, b)
			}
			sa, sb := sf.Slope(p, tm), ff.Slope(p, tm)
			if sa.Dist(sb) > 1e-9 {
				t.Errorf("slope at %v t=%g: ship %v, maneuver %v", p, tm, sa, sb)
			}
		}
		if v, ok := m.GenerationSpeed(p); !ok || math.Abs(v-6.0) > 1e-12 {
			t.Errorf("generation speed at %v: %g ok=%v, want 6", p, v, ok)
		}
		if dir, ok := m.GenerationHeading(p); !ok || dir.Dist(track.Dir) > 1e-12 {
			t.Errorf("generation heading at %v: %v ok=%v, want %v", p, dir, ok, track.Dir)
		}
	}
}

// Uniform-acceleration kinematics: a leg from v0 to v1 over distance L takes
// T = 2L/(v0+v1); position and speed interpolate accordingly, and
// Position/SpeedAt clamp outside the trajectory.
func TestManeuverKinematics(t *testing.T) {
	// 300 m straight run accelerating from 4 to 8 m/s: T = 600/12 = 50 s.
	m, err := NewManeuver(10, 12, []Waypoint{
		{Pos: geo.Vec2{X: 0, Y: 0}, Speed: 4},
		{Pos: geo.Vec2{X: 300, Y: 0}, Speed: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.EnterAt(); got != 10 {
		t.Fatalf("EnterAt = %g, want 10", got)
	}
	if got := m.ExitAt(); math.Abs(got-60) > 1e-12 {
		t.Fatalf("ExitAt = %g, want 60", got)
	}
	// Mid-time: τ=25, s = 4·25 + ½·0.08·625 = 125, v = 4 + 0.08·25 = 6.
	if p := m.Position(35); math.Abs(p.X-125) > 1e-9 || p.Y != 0 {
		t.Errorf("Position(35) = %v, want (125, 0)", p)
	}
	if v := m.SpeedAt(35); math.Abs(v-6) > 1e-9 {
		t.Errorf("SpeedAt(35) = %g, want 6", v)
	}
	// Clamps.
	if p := m.Position(0); p != (geo.Vec2{X: 0, Y: 0}) {
		t.Errorf("Position before entry = %v, want origin", p)
	}
	if p := m.Position(1000); math.Abs(p.X-300) > 1e-9 {
		t.Errorf("Position after exit = %v, want (300, 0)", p)
	}
	if v := m.SpeedAt(0); v != 4 {
		t.Errorf("SpeedAt before entry = %g, want 4", v)
	}
	if v := m.SpeedAt(1000); math.Abs(v-8) > 1e-9 {
		t.Errorf("SpeedAt after exit = %g, want 8", v)
	}
	// GenerationSpeed halfway down the track (abeam at x=150):
	// v² = 16 + 2·0.08·150 = 40.
	p := geo.Vec2{X: 150, Y: 80}
	v, ok := m.GenerationSpeed(p)
	if !ok || math.Abs(v-math.Sqrt(40)) > 1e-9 {
		t.Errorf("GenerationSpeed(%v) = %g ok=%v, want %g", p, v, ok, math.Sqrt(40))
	}
	// The wake packet there must carry the local generation speed, not an
	// endpoint speed: compare against a constant-speed ship at sqrt(40).
	ref, err := NewShip(geo.NewLine(geo.Vec2{}, geo.Vec2{X: 1}), math.Sqrt(40), 12)
	if err != nil {
		t.Fatal(err)
	}
	at, ok := m.ArrivalTime(p)
	if !ok {
		t.Fatalf("maneuver does not cover %v", p)
	}
	got := ManeuverField{M: m}.VerticalAccel(p, at+3)
	want := Signal{
		Arrival:   at,
		Amp:       ref.SignalAt(p).Amp,
		TransAmp:  ref.SignalAt(p).TransAmp,
		Freq:      ref.SignalAt(p).Freq,
		TransFreq: ref.SignalAt(p).TransFreq,
		Sigma:     ref.SignalAt(p).Sigma,
	}.VerticalAccel(at + 3)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("accelerating wake packet = %g, want constant-speed-equivalent %g", got, want)
	}
}

// A collinear two-leg run at constant speed behaves like one leg: every
// point is covered exactly once and the junction introduces no seam in
// arrival times.
func TestManeuverCollinearContinuity(t *testing.T) {
	one, err := NewManeuver(0, 12, []Waypoint{
		{Pos: geo.Vec2{X: 0, Y: 0}, Speed: 5},
		{Pos: geo.Vec2{X: 400, Y: 0}, Speed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewManeuver(0, 12, []Waypoint{
		{Pos: geo.Vec2{X: 0, Y: 0}, Speed: 5},
		{Pos: geo.Vec2{X: 160, Y: 0}, Speed: 5},
		{Pos: geo.Vec2{X: 400, Y: 0}, Speed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []geo.Vec2{
		{X: 40, Y: 60}, {X: 159.9, Y: 30}, {X: 160, Y: 30}, {X: 200, Y: -45}, {X: 399, Y: 20},
	} {
		a1, ok1 := one.ArrivalTime(p)
		a2, ok2 := two.ArrivalTime(p)
		if ok1 != ok2 {
			t.Fatalf("coverage mismatch at %v: one=%v two=%v", p, ok1, ok2)
		}
		if math.Abs(a1-a2) > 1e-9 {
			t.Errorf("arrival mismatch at %v: one-leg %g, two-leg %g", p, a1, a2)
		}
		e1 := ManeuverField{M: one}.VerticalAccel(p, a1+2)
		e2 := ManeuverField{M: two}.VerticalAccel(p, a1+2)
		if math.Abs(e1-e2) > 1e-9 {
			t.Errorf("field mismatch at %v: one-leg %g, two-leg %g", p, e1, e2)
		}
	}
}

// A dogleg turn changes the generation heading reported on either side of
// the junction's abeam sectors.
func TestManeuverDoglegHeading(t *testing.T) {
	m, err := NewManeuver(0, 12, []Waypoint{
		{Pos: geo.Vec2{X: 0, Y: 0}, Speed: 5},
		{Pos: geo.Vec2{X: 200, Y: 0}, Speed: 5},
		{Pos: geo.Vec2{X: 200, Y: 200}, Speed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	d1, ok := m.GenerationHeading(geo.Vec2{X: 100, Y: -50})
	if !ok || d1.Dist(geo.Vec2{X: 1, Y: 0}) > 1e-12 {
		t.Errorf("first-leg heading = %v ok=%v, want +X", d1, ok)
	}
	d2, ok := m.GenerationHeading(geo.Vec2{X: 260, Y: 100})
	if !ok || d2.Dist(geo.Vec2{X: 0, Y: 1}) > 1e-12 {
		t.Errorf("second-leg heading = %v ok=%v, want +Y", d2, ok)
	}
	// The outer shadow sector of the turn (beyond both legs' extents) is
	// uncovered.
	if _, ok := m.ArrivalTime(geo.Vec2{X: 280, Y: -80}); ok {
		t.Error("outer turn shadow sector unexpectedly covered")
	}
}

// Constructor validation.
func TestNewManeuverErrors(t *testing.T) {
	a, b := geo.Vec2{X: 0, Y: 0}, geo.Vec2{X: 100, Y: 0}
	cases := []struct {
		name   string
		length float64
		wps    []Waypoint
	}{
		{"too few waypoints", 12, []Waypoint{{Pos: a, Speed: 5}}},
		{"zero speed", 12, []Waypoint{{Pos: a, Speed: 0}, {Pos: b, Speed: 5}}},
		{"negative speed", 12, []Waypoint{{Pos: a, Speed: 5}, {Pos: b, Speed: -1}}},
		{"coincident waypoints", 12, []Waypoint{{Pos: a, Speed: 5}, {Pos: a, Speed: 5}}},
		{"zero hull length", 0, []Waypoint{{Pos: a, Speed: 5}, {Pos: b, Speed: 5}}},
	}
	for _, c := range cases {
		if _, err := NewManeuver(0, c.length, c.wps); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
