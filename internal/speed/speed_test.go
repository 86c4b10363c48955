package speed

import (
	"math"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/wake"
)

// arrival computes the wake-front arrival time at p for a ship on line
// (origin o, heading angle phi) at speed v, using cusp half-angle theta:
// the front passes p when the ship is dist/tan(theta) beyond p's
// projection on the sailing line.
func arrival(p, o geo.Vec2, phi, v, theta float64) float64 {
	u := geo.Vec2{X: math.Cos(phi), Y: math.Sin(phi)}
	line := geo.NewLine(o, u)
	return (line.Project(p) + line.Dist(p)/math.Tan(theta)) / v
}

// fourNodeTimes generates (t1..t4) for the Fig. 10 layout: pair i at
// (0, yi), (0, yi+D) on the positive side; pair j at (xj, yj), (xj, yj+D)
// on the negative side.
func fourNodeTimes(o geo.Vec2, phi, v, theta, d float64) (t1, t2, t3, t4 float64) {
	si := geo.Vec2{X: 0, Y: 30}
	spi := geo.Vec2{X: 0, Y: 30 + d}
	sj := geo.Vec2{X: 50, Y: -30 - d}
	spj := geo.Vec2{X: 50, Y: -30}
	t1 = arrival(si, o, phi, v, theta)
	t2 = arrival(spi, o, phi, v, theta)
	t3 = arrival(sj, o, phi, v, theta)
	t4 = arrival(spj, o, phi, v, theta)
	return
}

func TestEstimate4ExactWhenModelMatchesTheta(t *testing.T) {
	// Arrivals generated with the estimator's own θ = 20° must be
	// recovered near-exactly for a range of crossing angles and speeds.
	for _, alpha := range []float64{-30, -10, 0, 15, 30, 45, 60} {
		for _, v := range []float64{geo.Knots(10), geo.Knots(16), 3, 12} {
			phi := geo.Deg(alpha)
			t1, t2, t3, t4 := fourNodeTimes(geo.Vec2{}, phi, v, Theta, 25)
			est, err := Estimate4(t1, t2, t3, t4, 25)
			if err != nil {
				t.Fatalf("alpha=%v v=%v: %v", alpha, v, err)
			}
			if math.Abs(est.Speed-v)/v > 1e-9 {
				t.Errorf("alpha=%v: speed = %v, want %v", alpha, est.Speed, v)
			}
			gotA := geo.NormalizeAngle(est.Alpha)
			if math.Abs(gotA-phi) > 1e-9 {
				t.Errorf("alpha=%v: estimated %v°", alpha, geo.ToDeg(gotA))
			}
			if !est.Forward {
				t.Errorf("alpha=%v: Forward = false for +X-ish heading", alpha)
			}
		}
	}
}

func TestEstimate4WithKelvinMismatch(t *testing.T) {
	// Arrivals generated with the physical 19°28′ cusp angle while the
	// estimator assumes 20°: a small systematic error remains, well within
	// the paper's 20% bracket.
	for _, alphaDeg := range []float64{0, 20, 40} {
		v := geo.Knots(10)
		t1, t2, t3, t4 := fourNodeTimes(geo.Vec2{}, geo.Deg(alphaDeg), v, wake.KelvinHalfAngle, 25)
		est, err := Estimate4(t1, t2, t3, t4, 25)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(est.Speed-v) / v
		if relErr > 0.10 {
			t.Errorf("alpha=%v: relative error %v too large", alphaDeg, relErr)
		}
		if relErr == 0 {
			t.Errorf("alpha=%v: suspiciously exact despite angle mismatch", alphaDeg)
		}
	}
}

func TestEstimate4ReverseHeadingSpeed(t *testing.T) {
	// Ship traveling in the −X direction: four timestamps alone leave the
	// heading reflection-ambiguous, but the speed must still come out
	// positive and accurate.
	v := geo.Knots(12)
	phi := geo.Deg(180 + 25)
	t1, t2, t3, t4 := fourNodeTimes(geo.Vec2{X: 100, Y: 0}, phi, v, Theta, 25)
	est, err := Estimate4(t1, t2, t3, t4, 25)
	if err != nil {
		t.Fatal(err)
	}
	if est.Speed <= 0 {
		t.Fatalf("reverse heading speed = %v", est.Speed)
	}
	if math.Abs(est.Speed-v)/v > 0.02 {
		t.Errorf("reverse heading speed = %v, want %v", est.Speed, v)
	}
}

func TestHeadingDisambiguation(t *testing.T) {
	// With positions available, EstimateFromDetections resolves the travel
	// direction: run the same grid with a forward and a reverse ship.
	grid := geo.GridSpec{Rows: 6, Cols: 5, Spacing: 25}
	for _, tc := range []struct {
		phiDeg  float64
		forward bool
	}{
		{15, true},
		{180 + 15, false},
		{-20, true},
		{160, false},
	} {
		phi := geo.Deg(tc.phiDeg)
		u := geo.Vec2{X: math.Cos(phi), Y: math.Sin(phi)}
		line := geo.NewLine(geo.Vec2{X: 50, Y: 60}, u)
		ship, err := wake.NewShip(line, geo.Knots(10), 12)
		if err != nil {
			t.Fatal(err)
		}
		var dets []Detection
		for r := 0; r < grid.Rows; r++ {
			for c := 0; c < grid.Cols; c++ {
				p := grid.Pos(r, c)
				sig := ship.SignalAt(p)
				dets = append(dets, Detection{Pos: p, Time: sig.Arrival, Energy: sig.Amp})
			}
		}
		est, err := EstimateFromDetections(dets, line, 25)
		if err != nil {
			t.Fatalf("phi=%v: %v", tc.phiDeg, err)
		}
		if est.Forward != tc.forward {
			t.Errorf("phi=%v: Forward = %v, want %v (alpha=%v°)",
				tc.phiDeg, est.Forward, tc.forward, geo.ToDeg(est.Alpha))
		}
		// Resolved heading within 15° of truth.
		diff := math.Abs(geo.NormalizeAngle(est.Alpha - phi))
		if diff > geo.Deg(15) {
			t.Errorf("phi=%v: heading off by %v°", tc.phiDeg, geo.ToDeg(diff))
		}
	}
}

func TestEstimate4Validation(t *testing.T) {
	if _, err := Estimate4(1, 2, 3, 4, 0); err == nil {
		t.Error("expected error for zero D")
	}
	// a == b → degenerate denominator.
	if _, err := Estimate4(0, 1, 0, 1, 25); err == nil {
		t.Error("expected degenerate-timestamp error")
	}
}

func TestEstimate4PerPairConsistency(t *testing.T) {
	v := geo.Knots(16)
	t1, t2, t3, t4 := fourNodeTimes(geo.Vec2{}, geo.Deg(10), v, Theta, 25)
	est, err := Estimate4(t1, t2, t3, t4, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.SpeedI-est.SpeedJ) > 1e-6*v {
		t.Errorf("pair estimates disagree: %v vs %v", est.SpeedI, est.SpeedJ)
	}
	h := geo.Vec2{X: math.Cos(est.Alpha), Y: math.Sin(est.Alpha)}
	if math.Abs(h.Norm()-1) > 1e-12 {
		t.Errorf("heading not unit: %v", h)
	}
	want := geo.Vec2{X: math.Cos(geo.Deg(10)), Y: math.Sin(geo.Deg(10))}
	if h.Sub(want).Norm() > 1e-6 {
		t.Errorf("heading = %v, want %v", h, want)
	}
}

func TestEstimateFromDetections(t *testing.T) {
	// A full grid of detections; the helper must find adjacent pairs on
	// both sides of the line and recover the speed.
	v := geo.Knots(10)
	phi := geo.Deg(15)
	o := geo.Vec2{X: 0, Y: 60} // line passes through the grid interior
	u := geo.Vec2{X: math.Cos(phi), Y: math.Sin(phi)}
	line := geo.NewLine(o, u)
	ship, err := wake.NewShip(line, v, 12)
	if err != nil {
		t.Fatal(err)
	}
	grid := geo.GridSpec{Rows: 6, Cols: 5, Spacing: 25}
	var dets []Detection
	for r := 0; r < grid.Rows; r++ {
		for c := 0; c < grid.Cols; c++ {
			p := grid.Pos(r, c)
			sig := ship.SignalAt(p)
			dets = append(dets, Detection{Pos: p, Time: sig.Arrival, Energy: sig.Amp})
		}
	}
	est, err := EstimateFromDetections(dets, line, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Speed-v)/v > 0.10 {
		t.Errorf("speed = %v, want %v ± 10%%", est.Speed, v)
	}
}

func TestEstimateFromDetectionsErrors(t *testing.T) {
	line := geo.NewLine(geo.Vec2{}, geo.Vec2{X: 1, Y: 0})
	if _, err := EstimateFromDetections(nil, line, 25); err == nil {
		t.Error("expected error for no detections")
	}
	dets := []Detection{
		{Pos: geo.Vec2{X: 0, Y: 10}, Time: 1},
		{Pos: geo.Vec2{X: 0, Y: 35}, Time: 2},
		{Pos: geo.Vec2{X: 0, Y: 60}, Time: 3},
		{Pos: geo.Vec2{X: 25, Y: 10}, Time: 4},
	}
	// All on the positive side: no pair below the line.
	if _, err := EstimateFromDetections(dets, line, 25); err == nil {
		t.Error("expected error with one-sided detections")
	}
	if _, err := EstimateFromDetections(dets, line, 0); err == nil {
		t.Error("expected error for zero spacing")
	}
	// Nodes present on both sides but no vertical adjacency below.
	dets2 := []Detection{
		{Pos: geo.Vec2{X: 0, Y: 10}, Time: 1},
		{Pos: geo.Vec2{X: 0, Y: 35}, Time: 2},
		{Pos: geo.Vec2{X: 0, Y: -10}, Time: 3},
		{Pos: geo.Vec2{X: 25, Y: -60}, Time: 4},
	}
	if _, err := EstimateFromDetections(dets2, line, 25); err == nil {
		t.Error("expected error with no adjacent pair on negative side")
	}
}

func TestStrongestPairPicksHighestEnergy(t *testing.T) {
	d := 25.0
	dets := []Detection{
		{Pos: geo.Vec2{X: 0, Y: 0}, Time: 1, Energy: 1},
		{Pos: geo.Vec2{X: 0, Y: 25}, Time: 2, Energy: 0.5},
		{Pos: geo.Vec2{X: 50, Y: 0}, Time: 3, Energy: 9},
		{Pos: geo.Vec2{X: 50, Y: 25}, Time: 4, Energy: 4},
	}
	pair, err := strongestPair(dets, d)
	if err != nil {
		t.Fatal(err)
	}
	if pair[0].Energy != 9 || pair[1].Energy != 4 {
		t.Errorf("pair = %+v", pair)
	}
}
