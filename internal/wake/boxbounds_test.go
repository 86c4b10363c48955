package wake

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
)

// checkDominates asserts the box bound dominates the point bound at p over
// the window, with a hair of relative slack for floating-point noise.
func checkDominates(t *testing.T, label string, pa, ps, ba, bs float64, p geo.Vec2, t0, t1 float64) {
	t.Helper()
	const rel, abs = 1e-9, 1e-12
	if pa > ba*(1+rel)+abs {
		t.Fatalf("%s: point accel bound %g exceeds box bound %g at %v window [%g,%g]",
			label, pa, ba, p, t0, t1)
	}
	if ps > bs*(1+rel)+abs {
		t.Fatalf("%s: point slope bound %g exceeds box bound %g at %v window [%g,%g]",
			label, ps, bs, p, t0, t1)
	}
}

// samplePoints returns a deterministic grid of interior points plus the
// corners of [min, max].
func samplePoints(min, max geo.Vec2, n int) []geo.Vec2 {
	pts := []geo.Vec2{min, max, {X: min.X, Y: max.Y}, {X: max.X, Y: min.Y}}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			fx := (float64(i) + 0.5) / float64(n)
			fy := (float64(j) + 0.5) / float64(n)
			pts = append(pts, geo.Vec2{
				X: min.X + fx*(max.X-min.X),
				Y: min.Y + fy*(max.Y-min.Y),
			})
		}
	}
	return pts
}

// TestFieldBoundsBoxDominates is the safety property the spatial index
// rests on: for a randomized population of ships, rectangles, and sample
// windows, a ship's Wake().BoundsBox dominates its Bounds at every point inside the
// rectangle. If this holds, an index-skipped node would also have been
// skipped by the sensor's own per-block cull, so indexing cannot change a
// single sample.
func TestFieldBoundsBoxDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 300; trial++ {
		origin := geo.Vec2{X: rng.Float64()*400 - 200, Y: rng.Float64()*400 - 200}
		ang := rng.Float64() * 2 * math.Pi
		dir := geo.Vec2{X: math.Cos(ang), Y: math.Sin(ang)}
		ship, err := NewShip(geo.NewLine(origin, dir), 1+rng.Float64()*9, 5+rng.Float64()*20)
		if err != nil {
			t.Fatal(err)
		}
		ship.Time0 = rng.Float64() * 100
		f := ship.Wake()

		for q := 0; q < 10; q++ {
			c := geo.Vec2{X: rng.Float64()*600 - 300, Y: rng.Float64()*600 - 300}
			w := rng.Float64() * 80
			h := rng.Float64() * 80
			if q == 0 {
				w, h = 0, 0 // degenerate point box
			}
			min := geo.Vec2{X: c.X - w/2, Y: c.Y - h/2}
			max := geo.Vec2{X: c.X + w/2, Y: c.Y + h/2}
			t0 := rng.Float64() * 200
			t1 := t0 + rng.Float64()*5
			ba, bs := f.BoundsBox(min, max, t0, t1)
			for _, p := range samplePoints(min, max, 4) {
				pa, ps := f.Bounds(p, t0, t1)
				checkDominates(t, "ship", pa, ps, ba, bs, p, t0, t1)
			}
		}
	}
}

// TestManeuverBoundsBoxDominates runs the same property against randomized
// accelerating multi-leg maneuvers, whose per-leg generation-speed intervals
// exercise the frequency/amplitude extremes the leg bound takes.
func TestManeuverBoundsBoxDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 150; trial++ {
		nw := 2 + rng.Intn(3)
		wps := make([]Waypoint, nw)
		pos := geo.Vec2{X: rng.Float64()*200 - 100, Y: rng.Float64()*200 - 100}
		for i := range wps {
			wps[i] = Waypoint{Pos: pos, Speed: 1 + rng.Float64()*9}
			step := geo.Vec2{X: rng.Float64()*300 - 150, Y: rng.Float64()*300 - 150}
			if step.Norm() < 1 {
				step = geo.Vec2{X: 50}
			}
			pos = pos.Add(step)
		}
		m, err := NewManeuver(rng.Float64()*50, 5+rng.Float64()*20, wps)
		if err != nil {
			t.Fatal(err)
		}
		f := ManeuverField{M: m}

		for q := 0; q < 10; q++ {
			c := geo.Vec2{X: rng.Float64()*500 - 250, Y: rng.Float64()*500 - 250}
			w := rng.Float64() * 60
			h := rng.Float64() * 60
			min := geo.Vec2{X: c.X - w/2, Y: c.Y - h/2}
			max := geo.Vec2{X: c.X + w/2, Y: c.Y + h/2}
			t0 := rng.Float64() * 150
			t1 := t0 + rng.Float64()*5
			ba, bs := f.BoundsBox(min, max, t0, t1)
			for _, p := range samplePoints(min, max, 4) {
				pa, ps := f.Bounds(p, t0, t1)
				checkDominates(t, "maneuver", pa, ps, ba, bs, p, t0, t1)
			}
		}
	}
}

// TestBoundsBoxFarFieldTiny pins the reason the index pays off: a box the
// wake front has not reached gets a bound far below any realistic cull
// threshold, while the same box after front passage bounds a real signal.
func TestBoundsBoxFarFieldTiny(t *testing.T) {
	ship, err := CrossingShip(geo.Vec2{X: 50, Y: 50}, 10, 0, 0, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := ship.Wake()
	ba, bs := f.BoundsBox(geo.Vec2{X: 0, Y: 2000}, geo.Vec2{X: 100, Y: 2100}, 0, 1)
	if ba > 1e-6 || bs > 1e-6 {
		t.Fatalf("far-field box bound not tiny: accel %g slope %g", ba, bs)
	}
	at := ship.ArrivalTime(geo.Vec2{X: 50, Y: 2050})
	ba, _ = f.BoundsBox(geo.Vec2{X: 0, Y: 2000}, geo.Vec2{X: 100, Y: 2100}, at, at+5)
	if ba <= 0 {
		t.Fatalf("active box bound should be positive, got %g", ba)
	}
}
