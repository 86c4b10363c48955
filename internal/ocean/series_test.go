package ocean

import (
	"math"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
)

func seriesTestField(t *testing.T) *Field {
	t.Helper()
	spec, err := NewJONSWAP(0.4, 6.0, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewField(FieldConfig{Spectrum: spec, Seed: 42, BuoyRadius: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// block is one synthesized series: acceleration in m/s², slopes
// dimensionless.
type block struct{ Accel, SlopeX, SlopeY []float64 }

func newBlock(n int) block {
	return block{Accel: make([]float64, n), SlopeX: make([]float64, n), SlopeY: make([]float64, n)}
}

// phasorBlock synthesizes n samples through the phasor recurrence for an
// observer at p0 moving at v.
func phasorBlock(f *Field, p0, v geo.Vec2, t0, dt float64, n int) block {
	b := newBlock(n)
	f.AccumulateSeriesMoving(p0, v, t0, dt, n, b.Accel, b.SlopeX, b.SlopeY)
	return b
}

// The phasor recurrence must agree with the exact per-sample evaluation
// (VerticalAccel and Slope at the observer's position) to within
// floating-point noise, including across resync boundaries, for a fixed and
// for a drifting observer.
func TestAccumulateSeriesMatchesExact(t *testing.T) {
	f := seriesTestField(t)
	p0 := geo.Vec2{X: 13.7, Y: -4.2}
	const (
		t0 = 3.25
		dt = 1.0 / 50
		n  = resyncInterval*2 + 37 // cross two resync boundaries
	)
	for _, v := range []geo.Vec2{{}, {X: 0.03, Y: -0.02}} {
		series := phasorBlock(f, p0, v, t0, dt, n)
		// Scale for relative comparison: typical accel magnitude.
		var scale float64
		for _, a := range series.Accel {
			scale += a * a
		}
		scale = math.Sqrt(scale/float64(n)) + 1e-12
		for s := 0; s < n; s++ {
			ts := t0 + float64(s)*dt
			p := p0.Add(v.Scale(float64(s) * dt))
			accel, slope := f.VerticalAccel(p, ts), f.Slope(p, ts)
			if d := math.Abs(series.Accel[s] - accel); d > 1e-9*scale {
				t.Fatalf("v %v sample %d: accel %v vs exact %v (Δ %g)", v, s, series.Accel[s], accel, d)
			}
			if d := math.Abs(series.SlopeX[s] - slope.X); d > 1e-10 {
				t.Fatalf("v %v sample %d: slopeX %v vs exact %v", v, s, series.SlopeX[s], slope.X)
			}
			if d := math.Abs(series.SlopeY[s] - slope.Y); d > 1e-10 {
				t.Fatalf("v %v sample %d: slopeY %v vs exact %v", v, s, series.SlopeY[s], slope.Y)
			}
		}
	}
}

// Repeated synthesis of the same block must be bit-identical — the property
// the parallel per-node fan-out relies on.
func TestAccumulateSeriesDeterministic(t *testing.T) {
	f := seriesTestField(t)
	p, v := geo.Vec2{X: -8, Y: 21}, geo.Vec2{X: 0.01, Y: 0.02}
	a := phasorBlock(f, p, v, 1.5, 0.02, 333)
	b := phasorBlock(f, p, v, 1.5, 0.02, 333)
	for s := range a.Accel {
		if a.Accel[s] != b.Accel[s] || a.SlopeX[s] != b.SlopeX[s] || a.SlopeY[s] != b.SlopeY[s] {
			t.Fatalf("sample %d differs between identical syntheses", s)
		}
	}
}

// AccumulateSeriesMoving must add into the buffers, not overwrite them, so
// composite models can stack several sources.
func TestAccumulateSeriesAdds(t *testing.T) {
	f := seriesTestField(t)
	p := geo.Vec2{}
	const n = 16
	got := newBlock(n)
	for i := range got.Accel {
		got.Accel[i], got.SlopeX[i], got.SlopeY[i] = 100, 200, 300
	}
	f.AccumulateSeriesMoving(p, geo.Vec2{}, 0, 0.02, n, got.Accel, got.SlopeX, got.SlopeY)
	base := phasorBlock(f, p, geo.Vec2{}, 0, 0.02, n)
	for s := 0; s < n; s++ {
		if g, want := got.Accel[s], 100+base.Accel[s]; math.Abs(g-want) > 1e-12 {
			t.Fatalf("accel[%d] = %v, want %v", s, g, want)
		}
		if g, want := got.SlopeX[s], 200+base.SlopeX[s]; math.Abs(g-want) > 1e-12 {
			t.Fatalf("slopeX[%d] = %v, want %v", s, g, want)
		}
		if g, want := got.SlopeY[s], 300+base.SlopeY[s]; math.Abs(g-want) > 1e-12 {
			t.Fatalf("slopeY[%d] = %v, want %v", s, g, want)
		}
	}
}

// n <= 0 must be a no-op that never touches the buffers.
func TestAccumulateSeriesEmpty(t *testing.T) {
	f := seriesTestField(t)
	f.AccumulateSeriesMoving(geo.Vec2{}, geo.Vec2{}, 0, 0.02, 0, nil, nil, nil)
	f.AccumulateSeriesMoving(geo.Vec2{}, geo.Vec2{}, 0, 0.02, -3, nil, nil, nil)
}
