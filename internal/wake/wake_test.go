package wake

import (
	"math"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/ocean"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func testShip(t *testing.T, speed float64) *Ship {
	t.Helper()
	s, err := NewShip(geo.NewLine(geo.Vec2{}, geo.Vec2{X: 1, Y: 0}), speed, 12)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewShipValidation(t *testing.T) {
	line := geo.NewLine(geo.Vec2{}, geo.Vec2{X: 1, Y: 0})
	if _, err := NewShip(line, 0, 12); err == nil {
		t.Error("expected error for zero speed")
	}
	if _, err := NewShip(line, 5, 0); err == nil {
		t.Error("expected error for zero length")
	}
	s, err := NewShip(line, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if s.WaveCoeff != 1.5 || s.BaseDuration != 2.5 {
		t.Errorf("defaults not applied: %+v", s)
	}
}

func TestKelvinConstants(t *testing.T) {
	if !almostEq(geo.ToDeg(KelvinHalfAngle), 19.4667, 1e-3) {
		t.Errorf("KelvinHalfAngle = %v°", geo.ToDeg(KelvinHalfAngle))
	}
	if !almostEq(geo.ToDeg(CuspCrestAngle), 54.7333, 1e-3) {
		t.Errorf("CuspCrestAngle = %v°", geo.ToDeg(CuspCrestAngle))
	}
}

func TestShipPosition(t *testing.T) {
	s := testShip(t, 5)
	s.Time0 = 10
	if p := s.Position(10); p != (geo.Vec2{X: 0, Y: 0}) {
		t.Errorf("position at Time0 = %v", p)
	}
	if p := s.Position(12); !almostEq(p.X, 10, 1e-12) || p.Y != 0 {
		t.Errorf("position after 2s = %v, want (10, 0)", p)
	}
}

func TestFroudeAndTheta(t *testing.T) {
	s := testShip(t, geo.Knots(10)) // 5.14 m/s, L=12 → Fd ≈ 0.474
	// For sub-critical Froude numbers Θ is near 35.27°.
	th := geo.ToDeg(s.Theta())
	if th < 35.0 || th > 35.27 {
		t.Errorf("Theta = %v°, want just below 35.27", th)
	}
	// Super-critical ship: Θ clamps to ≥ 0 and decreases.
	fast := testShip(t, 30) // Fd ≈ 2.77
	if fast.Theta() != 0 {
		t.Errorf("super-critical Theta = %v, want 0", fast.Theta())
	}
}

func TestWakeWaveSpeedAndFreq(t *testing.T) {
	s := testShip(t, geo.Knots(10))
	wv := s.WakeWaveSpeed()
	want := s.Speed * math.Cos(s.Theta())
	if !almostEq(wv, want, 1e-12) {
		t.Errorf("WakeWaveSpeed = %v, want %v", wv, want)
	}
	if wv >= s.Speed {
		t.Error("wake wave speed must be below ship speed")
	}
	// 10-knot boat: wake frequency in the detectable sub-1 Hz band,
	// above typical swell (~0.2 Hz).
	f := s.WakeFreq()
	if f < 0.25 || f > 1.0 {
		t.Errorf("WakeFreq = %v Hz, want in [0.25, 1]", f)
	}
	// Transverse waves are slower in frequency (phase speed = V).
	if tf := s.SignalAt(geo.Vec2{X: 100, Y: 25}).TransFreq; tf >= f {
		t.Errorf("TransverseFreq %v should be below divergent freq %v", tf, f)
	}
}

// offTrack returns the point at perpendicular distance d from testShip's track.
func offTrack(d float64) geo.Vec2 { return geo.Vec2{X: 100, Y: d} }

func TestDecayLaws(t *testing.T) {
	s := testShip(t, 5)
	// Hm = c·d^(-1/3): doubling distance scales by 2^(-1/3).
	h25 := s.SignalAt(offTrack(25)).Amp
	h50 := s.SignalAt(offTrack(50)).Amp
	if !almostEq(h50/h25, math.Pow(2, -1.0/3.0), 1e-9) {
		t.Errorf("cusp decay ratio = %v", h50/h25)
	}
	// Transverse decays faster: ratio 2^(-1/2).
	t25 := s.SignalAt(offTrack(25)).TransAmp
	t50 := s.SignalAt(offTrack(50)).TransAmp
	if !almostEq(t50/t25, math.Pow(2, -0.5), 1e-9) {
		t.Errorf("transverse decay ratio = %v", t50/t25)
	}
	// Far from the ship, transverse waves are negligible relative to
	// divergent waves (both same c here, so ratio shrinks with d).
	ratio := func(d float64) float64 { g := s.SignalAt(offTrack(d)); return g.TransAmp / g.Amp }
	if ratio(400) >= ratio(25) {
		t.Error("transverse/divergent ratio should fall with distance")
	}
	// Near-field clamp keeps heights finite.
	if h0 := s.SignalAt(offTrack(0)).Amp; math.IsInf(h0, 0) || h0 != s.SignalAt(offTrack(MinDecayDistance)).Amp {
		t.Error("near-field clamp failed")
	}
}

func TestArrivalTimeGeometry(t *testing.T) {
	// Ship along +X at 5 m/s starting at origin at t=0. A node at (100, 25):
	// the front passes when the ship is 25/tan(19.47°) ≈ 70.7 m beyond x=100.
	s := testShip(t, 5)
	p := geo.Vec2{X: 100, Y: 25}
	at := s.ArrivalTime(p)
	lead := 25 / math.Tan(KelvinHalfAngle)
	want := (100 + lead) / 5
	if !almostEq(at, want, 1e-9) {
		t.Errorf("ArrivalTime = %v, want %v", at, want)
	}
	// Symmetric on both sides of the track.
	if a2 := s.ArrivalTime(geo.Vec2{X: 100, Y: -25}); !almostEq(a2, at, 1e-9) {
		t.Errorf("asymmetric arrival: %v vs %v", a2, at)
	}
	// Farther nodes are hit later.
	if s.ArrivalTime(geo.Vec2{X: 100, Y: 50}) <= at {
		t.Error("farther node should be hit later")
	}
	// Time0 shifts arrivals.
	s.Time0 = 100
	if a3 := s.ArrivalTime(p); !almostEq(a3, want+100, 1e-9) {
		t.Errorf("Time0 shift: %v", a3)
	}
}

// TestSetArrival: timing a crossing puts the wake front at p at t, for a
// track that starts neither at the origin nor at t = 0, and moves only
// Time0.
func TestSetArrival(t *testing.T) {
	s, err := NewShip(geo.NewLine(geo.Vec2{X: -340, Y: 75}, geo.Vec2{X: 0.6, Y: 0.8}), geo.Knots(12), 12)
	if err != nil {
		t.Fatal(err)
	}
	s.Time0 = -55
	want := *s
	p := geo.Vec2{X: 80, Y: 410}
	s.SetArrival(p, 250)
	if at := s.ArrivalTime(p); !almostEq(at, 250, 1e-9) {
		t.Errorf("front reaches p at %v, want 250", at)
	}
	want.Time0 = s.Time0
	if *s != want {
		t.Errorf("SetArrival changed more than Time0: %+v, want %+v", *s, want)
	}
	// The front trails the hull: when it reaches p, the ship is already
	// past p's projection onto the track.
	if along := s.Track.Project(s.Position(250)); along <= s.Track.Project(p) {
		t.Errorf("hull at %v along the track when the front reaches p (p at %v)", along, s.Track.Project(p))
	}
}

func TestArrivalOrderAcrossRow(t *testing.T) {
	// Nodes in a row perpendicular to the track: closer nodes detect first —
	// the spatial/temporal correlation the cluster level exploits (§IV-C1).
	s := testShip(t, geo.Knots(10))
	prev := math.Inf(-1)
	for d := 25.0; d <= 150; d += 25 {
		at := s.ArrivalTime(geo.Vec2{X: 200, Y: d})
		if at <= prev {
			t.Fatalf("arrival not increasing with distance at d=%v", d)
		}
		prev = at
	}
}

// TestDurationGrowsWithDistance: the packet lasts BaseDuration at 25 m and
// grows as d^(1/4) (its envelope width σ is half the duration).
func TestDurationGrowsWithDistance(t *testing.T) {
	s := testShip(t, 5)
	dur := func(d float64) float64 { return 2 * s.SignalAt(offTrack(d)).Sigma }
	if !almostEq(dur(25), s.BaseDuration, 1e-12) {
		t.Errorf("duration at 25 m = %v, want %v", dur(25), s.BaseDuration)
	}
	if !almostEq(dur(400)/dur(25), 2, 1e-12) {
		t.Errorf("duration ratio 400 m / 25 m = %v, want 16^(1/4) = 2", dur(400)/dur(25))
	}
	if dur(0) != dur(MinDecayDistance) {
		t.Error("duration clamp failed")
	}
}

func TestSignalPacketShape(t *testing.T) {
	s := testShip(t, geo.Knots(10))
	p := geo.Vec2{X: 200, Y: 25}
	sig := s.SignalAt(p)
	if sig.Amp <= 0 || sig.Sigma <= 0 {
		t.Fatalf("degenerate signal: %+v", sig)
	}
	// Before the front: negligible. At packet center: near max envelope.
	center := sig.Arrival + packetCenterLag*sig.Sigma
	far := sig.Arrival - 10*sig.Sigma
	if math.Abs(sig.Elevation(far)) > 1e-6*sig.Amp {
		t.Errorf("packet leaks before arrival: %v", sig.Elevation(far))
	}
	// Peak envelope magnitude near center across one period.
	var peak float64
	for dt := -1.0; dt <= 1.0; dt += 0.01 {
		if v := math.Abs(sig.Elevation(center + dt)); v > peak {
			peak = v
		}
	}
	if peak < 0.8*sig.Amp {
		t.Errorf("packet peak %v too small vs amp %v", peak, sig.Amp)
	}
}

func TestSignalAccelMatchesNumericalDerivative(t *testing.T) {
	s := testShip(t, geo.Knots(16))
	sig := s.SignalAt(geo.Vec2{X: 150, Y: 30})
	h := 1e-4
	for _, dt := range []float64{-2, -0.5, 0, 0.7, 2.5} {
		tm := sig.Arrival + packetCenterLag*sig.Sigma + dt
		num := (sig.Elevation(tm+h) - 2*sig.Elevation(tm) + sig.Elevation(tm-h)) / (h * h)
		got := sig.VerticalAccel(tm)
		if math.Abs(num-got) > 1e-3*(1+math.Abs(got)) {
			t.Errorf("dt=%v: accel %v vs numerical %v", dt, got, num)
		}
	}
}

func TestSignalZeroSigma(t *testing.T) {
	var sig Signal
	if sig.Elevation(0) != 0 || sig.VerticalAccel(0) != 0 {
		t.Error("zero-sigma signal should be silent")
	}
}

func TestWakeAmplitudeDecaysAcrossRows(t *testing.T) {
	// Nodes closer to the travel line see higher wake energy — the basis of
	// the energy correlation C_re (§IV-C1, eq. 11).
	s := testShip(t, geo.Knots(10))
	prev := math.Inf(1)
	for d := 25.0; d <= 150; d += 25 {
		sig := s.SignalAt(geo.Vec2{X: 200, Y: d})
		if sig.Amp >= prev {
			t.Fatalf("amplitude not decreasing at d=%v", d)
		}
		prev = sig.Amp
	}
}

// TestFieldComposition: the ship's wake model is exactly its SignalAt
// packet, bit for bit.
func TestFieldComposition(t *testing.T) {
	s := testShip(t, geo.Knots(10))
	s.Time0 = -12.5
	f := s.Wake()
	p := geo.Vec2{X: 100, Y: 25}
	sig := s.SignalAt(p)
	tm := sig.Arrival + packetCenterLag*sig.Sigma
	if f.Elevation(p, tm) != sig.Elevation(tm) {
		t.Error("Wake().Elevation disagrees with SignalAt")
	}
	if f.VerticalAccel(p, tm) != sig.VerticalAccel(tm) {
		t.Error("Wake().VerticalAccel disagrees with SignalAt")
	}
	ga, gs := sig.Bounds(tm-1, tm+1, ocean.WavenumberFor(s.WakeFreq()))
	if a, sl := f.Bounds(p, tm-1, tm+1); a != ga || sl != gs {
		t.Errorf("Wake().Bounds = %g, %g; SignalAt's packet bounds %g, %g", a, sl, ga, gs)
	}
	// Slope points away from the track (positive side → +Y-ish normal),
	// and is finite.
	sl := f.Slope(p, tm)
	if math.IsNaN(sl.X) || math.IsNaN(sl.Y) {
		t.Errorf("slope NaN: %v", sl)
	}
}

func TestFasterShipStrongerHigherFreqWake(t *testing.T) {
	slow := testShip(t, geo.Knots(10))
	fast := testShip(t, geo.Knots(16))
	// Faster ship → faster wake waves → lower frequency (deep water:
	// f = g/(2πc)).
	if fast.WakeFreq() >= slow.WakeFreq() {
		t.Errorf("16-kn wake freq %v should be below 10-kn %v", fast.WakeFreq(), slow.WakeFreq())
	}
}
