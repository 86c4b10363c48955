package speed

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
)

// gridDetections synthesizes detections for a 4×5 grid (25 m spacing) from
// the wake-front arrival model on the given sailing line: arrival = (foot
// projection + dist/tanθ)/v, energy decaying with distance to the line.
// jitter adds Gaussian onset noise.
func gridDetections(line geo.Line, v, jitter float64, rng *rand.Rand) []Detection {
	var dets []Detection
	for row := 0; row < 4; row++ {
		for col := 0; col < 5; col++ {
			p := geo.Vec2{X: float64(col) * 25, Y: float64(row) * 25}
			t := (line.Project(p) + line.Dist(p)/math.Tan(Theta)) / v
			if jitter > 0 {
				t += rng.NormFloat64() * jitter
			}
			dets = append(dets, Detection{
				Pos:    p,
				Time:   t,
				Energy: 100 / (1 + line.Dist(p)),
			})
		}
	}
	return dets
}

// TestEstimateFromDetectionsRandomized is a property test: for random
// speeds and headings, detections generated from the estimator's own
// arrival model must be recovered near-exactly, and the resolved heading
// must never point against the true travel direction — regardless of which
// way the (undirected) travel line is handed in.
func TestEstimateFromDetectionsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		v := 2 + rng.Float64()*8 // 2–10 m/s
		// Shallow crossing angle, all four travel quadrants.
		alphaDeg := -30 + rng.Float64()*60
		if rng.Intn(2) == 1 {
			alphaDeg += 180
		}
		phi := geo.Deg(alphaDeg)
		u := geo.Vec2{X: math.Cos(phi), Y: math.Sin(phi)}
		// The sailing line crosses mid-grid; hand the estimator the
		// undirected line with a random orientation.
		lineDir := u
		if rng.Intn(2) == 1 {
			lineDir = geo.Vec2{X: -u.X, Y: -u.Y}
		}
		track := geo.NewLine(geo.Vec2{X: 50, Y: 37.5}, u)
		line := geo.NewLine(geo.Vec2{X: 50, Y: 37.5}, lineDir)
		dets := gridDetections(track, v, 0, rng)
		est, err := EstimateFromDetections(dets, line, 25)
		if err != nil {
			t.Fatalf("trial %d (v=%.2f alpha=%.1f): %v", trial, v, alphaDeg, err)
		}
		if math.Abs(est.Speed-v)/v > 1e-6 {
			t.Errorf("trial %d: speed = %v, want %v (alpha=%.1f)", trial, est.Speed, v, alphaDeg)
		}
		h := geo.Vec2{X: math.Cos(est.Alpha), Y: math.Sin(est.Alpha)}
		if dot := h.Dot(u); dot <= 0 {
			t.Errorf("trial %d: heading mirrored: est %.1f° vs true %.1f° (dot %.3f)",
				trial, geo.ToDeg(est.Alpha), alphaDeg, dot)
		}
		if aerr := geo.AngleBetween(h, u); aerr > 1e-6 {
			t.Errorf("trial %d: heading off by %v rad", trial, aerr)
		}
	}
}

// TestEstimateHeadingNeverMirroredUnderJitter pins the reflection
// resolution under onset noise: the covariance over all detections decides
// the travel direction, so moderate per-node jitter must never flip the
// estimated heading into the opposite half-plane.
func TestEstimateHeadingNeverMirroredUnderJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mirrored := 0
	for trial := 0; trial < 300; trial++ {
		v := 3 + rng.Float64()*6
		alphaDeg := -30 + rng.Float64()*60
		if rng.Intn(2) == 1 {
			alphaDeg += 180
		}
		phi := geo.Deg(alphaDeg)
		u := geo.Vec2{X: math.Cos(phi), Y: math.Sin(phi)}
		track := geo.NewLine(geo.Vec2{X: 50, Y: 37.5}, u)
		dets := gridDetections(track, v, 0.5, rng)
		est, err := EstimateFromDetections(dets, track, 25)
		if err != nil {
			// Jitter can degenerate the four timestamps; that is a
			// no-estimate, not a wrong estimate.
			continue
		}
		if est.Speed <= 0 {
			t.Errorf("trial %d: non-positive speed %v", trial, est.Speed)
		}
		if h := (geo.Vec2{X: math.Cos(est.Alpha), Y: math.Sin(est.Alpha)}); h.Dot(u) <= 0 {
			mirrored++
			t.Errorf("trial %d: heading mirrored under jitter: est %.1f° vs true %.1f°",
				trial, geo.ToDeg(est.Alpha), alphaDeg)
		}
	}
	if mirrored > 0 {
		t.Errorf("%d/300 trials mirrored", mirrored)
	}
}
