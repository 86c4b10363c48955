package wake

import (
	"math"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
)

// TestFieldBoundsDominate: the culling bounds must dominate the exact wake
// signal on every window, everywhere — near the packet, across its onset,
// and far away — or culling would clip real wake energy.
func TestFieldBoundsDominate(t *testing.T) {
	ship, err := NewShip(geo.LineThrough(geo.Vec2{X: -300, Y: 0}, geo.Vec2{X: 300, Y: 0}), 5.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := ship.Wake()
	points := []geo.Vec2{
		{X: 0, Y: 25}, {X: 50, Y: -40}, {X: -120, Y: 12}, {X: 200, Y: 80}, {X: 10, Y: 3},
	}
	const dt = 0.02
	for _, p := range points {
		arrival := ship.ArrivalTime(p)
		// Slide 0.5 s windows across ±60 s around the arrival.
		for w := -60.0; w < 60; w += 0.5 {
			t0 := arrival + w
			t1 := t0 + 0.48
			ba, bs := f.Bounds(p, t0, t1)
			for tt := t0; tt <= t1+1e-9; tt += dt {
				if a := math.Abs(f.VerticalAccel(p, tt)); a > ba+1e-300 {
					t.Fatalf("p=%v window [%.2f,%.2f]: |accel| %g exceeds bound %g", p, t0, t1, a, ba)
				}
				if s := f.Slope(p, tt).Norm(); s > bs+1e-300 {
					t.Fatalf("p=%v window [%.2f,%.2f]: |slope| %g exceeds bound %g", p, t0, t1, s, bs)
				}
			}
		}
	}
}

// TestFieldBoundsCullFarWindows: long before and after the packet the bound
// must fall below the quantization floor, or culling would never trigger.
func TestFieldBoundsCullFarWindows(t *testing.T) {
	ship, err := NewShip(geo.LineThrough(geo.Vec2{X: -300, Y: 0}, geo.Vec2{X: 300, Y: 0}), 5.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := ship.Wake()
	p := geo.Vec2{X: 0, Y: 25}
	arrival := ship.ArrivalTime(p)
	const (
		floorAccel = 0.25 * 9.81 / 1024
		floorSlope = 0.25 / 1024
	)
	ba, bs := f.Bounds(p, arrival-60, arrival-59.5)
	if ba > floorAccel || bs > floorSlope {
		t.Errorf("60 s before arrival the bound should be cullable: accel %g (floor %g), slope %g (floor %g)",
			ba, floorAccel, bs, floorSlope)
	}
	ba, bs = f.Bounds(p, arrival+120, arrival+120.5)
	if ba > floorAccel || bs > floorSlope {
		t.Errorf("120 s after arrival the bound should be cullable: accel %g, slope %g", ba, bs)
	}
	// And near the packet it must NOT be cullable.
	ba, _ = f.Bounds(p, arrival, arrival+0.5)
	if ba <= floorAccel {
		t.Errorf("bound at the packet onset is %g, below the cull floor — would cull the wake itself", ba)
	}
}

// TestManeuverBoundsDominate: same domination property for multi-leg
// accelerating trajectories, including points near a turn that see two legs.
func TestManeuverBoundsDominate(t *testing.T) {
	m, err := NewManeuver(0, 8, []Waypoint{
		{Pos: geo.Vec2{X: -200, Y: -50}, Speed: 4},
		{Pos: geo.Vec2{X: 0, Y: 0}, Speed: 7},
		{Pos: geo.Vec2{X: 180, Y: 120}, Speed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := ManeuverField{M: m}
	points := []geo.Vec2{
		{X: -100, Y: 10}, {X: -5, Y: 30}, {X: 60, Y: 20}, {X: 100, Y: 110},
	}
	const dt = 0.02
	for _, p := range points {
		for w := 0.0; w < 120; w += 0.5 {
			t0 := w
			t1 := t0 + 0.48
			ba, bs := f.Bounds(p, t0, t1)
			for tt := t0; tt <= t1+1e-9; tt += dt {
				if a := math.Abs(f.VerticalAccel(p, tt)); a > ba+1e-300 {
					t.Fatalf("p=%v window [%.2f,%.2f]: |accel| %g exceeds bound %g", p, t0, t1, a, ba)
				}
				if s := f.Slope(p, tt).Norm(); s > bs+1e-300 {
					t.Fatalf("p=%v window [%.2f,%.2f]: |slope| %g exceeds bound %g", p, t0, t1, s, bs)
				}
			}
		}
	}
}
