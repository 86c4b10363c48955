package ocean

import (
	"math"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// integrate numerically integrates a spectrum over [lo, hi].
func integrate(s Spectrum, lo, hi float64, n int) float64 {
	df := (hi - lo) / float64(n)
	var sum float64
	for i := 0; i < n; i++ {
		f := lo + (float64(i)+0.5)*df
		sum += s.Density(f) * df
	}
	return sum
}

func TestPiersonMoskowitzEnergy(t *testing.T) {
	// Total variance of the spectrum must equal Hs²/16.
	s, err := NewPiersonMoskowitz(1.0, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	m0 := integrate(s, 0.01, 5, 20000)
	want := 1.0 / 16.0
	if math.Abs(m0-want)/want > 0.02 {
		t.Errorf("m0 = %v, want %v", m0, want)
	}
}

func TestPiersonMoskowitzPeak(t *testing.T) {
	s, _ := NewPiersonMoskowitz(0.8, 4.0)
	if pf := s.PeakFreq(); !almostEq(pf, 0.25, 1e-12) {
		t.Errorf("PeakFreq = %v", pf)
	}
	// Density is maximized at the peak frequency.
	fp := s.PeakFreq()
	dp := s.Density(fp)
	for _, f := range []float64{fp * 0.5, fp * 0.8, fp * 1.3, fp * 2} {
		if s.Density(f) > dp {
			t.Errorf("density at %v Hz exceeds peak density", f)
		}
	}
	if d := s.Density(0); d != 0 {
		t.Errorf("Density(0) = %v", d)
	}
	if d := s.Density(-1); d != 0 {
		t.Errorf("Density(-1) = %v", d)
	}
}

func TestPiersonMoskowitzValidation(t *testing.T) {
	if _, err := NewPiersonMoskowitz(0, 5); err == nil {
		t.Error("expected error for zero Hs")
	}
	if _, err := NewPiersonMoskowitz(1, -5); err == nil {
		t.Error("expected error for negative Tp")
	}
}

func TestJONSWAPEnergyAndPeak(t *testing.T) {
	s, err := NewJONSWAP(1.0, 5.0, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	m0 := integrate(s, 0.01, 5, 20000)
	want := 1.0 / 16.0
	// Goda's normalization is approximate; allow 10%.
	if math.Abs(m0-want)/want > 0.10 {
		t.Errorf("JONSWAP m0 = %v, want ~%v", m0, want)
	}
	// γ>1 sharpens the peak relative to PM.
	pm, _ := NewPiersonMoskowitz(1.0, 5.0)
	fp := s.PeakFreq()
	if s.Density(fp) <= pm.Density(fp) {
		t.Error("JONSWAP peak should exceed PM peak")
	}
}

func TestJONSWAPDefaults(t *testing.T) {
	s, err := NewJONSWAP(1, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Gamma != 3.3 {
		t.Errorf("default gamma = %v", s.Gamma)
	}
	if _, err := NewJONSWAP(0, 5, 3.3); err == nil {
		t.Error("expected error for zero Hs")
	}
	// γ=1 reduces JONSWAP to PM up to the normalization constant (which is
	// exactly 1 at γ=1).
	j1, _ := NewJONSWAP(1, 5, 1)
	pm, _ := NewPiersonMoskowitz(1, 5)
	for _, f := range []float64{0.1, 0.2, 0.3, 0.5} {
		if !almostEq(j1.Density(f), pm.Density(f), 1e-12) {
			t.Errorf("γ=1 JONSWAP differs from PM at %v Hz", f)
		}
	}
}

func TestDispersionHelpers(t *testing.T) {
	f := 0.2
	k := WavenumberFor(f)
	w := 2 * math.Pi * f
	if !almostEq(w*w, Gravity*k, 1e-9) {
		t.Errorf("dispersion violated: ω²=%v, gk=%v", w*w, Gravity*k)
	}
	if got := FreqForPhaseSpeed(w / k); !almostEq(got, f, 1e-12) {
		t.Errorf("FreqForPhaseSpeed of the phase speed ω/k = %v, want %v", got, f)
	}
	if FreqForPhaseSpeed(0) != 0 {
		t.Error("zero phase speed should map to frequency 0")
	}
}

func newTestField(t *testing.T, seed int64) *Field {
	t.Helper()
	s, err := NewPiersonMoskowitz(0.5, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewField(FieldConfig{Spectrum: s, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFieldReproducible(t *testing.T) {
	f1 := newTestField(t, 42)
	f2 := newTestField(t, 42)
	p := geo.Vec2{X: 10, Y: -5}
	for _, tm := range []float64{0, 1.5, 100} {
		if f1.Elevation(p, tm) != f2.Elevation(p, tm) {
			t.Fatal("same seed produced different fields")
		}
	}
	f3 := newTestField(t, 43)
	if f1.Elevation(p, 1) == f3.Elevation(p, 1) {
		t.Error("different seeds produced identical elevation (suspicious)")
	}
}

func TestFieldSignificantWaveHeight(t *testing.T) {
	f := newTestField(t, 1)
	hs := f.SignificantWaveHeight()
	if math.Abs(hs-0.5)/0.5 > 0.1 {
		t.Errorf("realized Hs = %v, want ~0.5", hs)
	}
}

func TestFieldElevationStatistics(t *testing.T) {
	// Time-series std of elevation ≈ Hs/4.
	f := newTestField(t, 2)
	p := geo.Vec2{}
	n := 50 * 600 // 10 minutes at 50 Hz
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		e := f.Elevation(p, float64(i)/50)
		sum += e
		sumSq += e * e
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Errorf("elevation mean = %v, want ~0", mean)
	}
	if math.Abs(std-0.125)/0.125 > 0.25 {
		t.Errorf("elevation std = %v, want ~0.125 (Hs/4)", std)
	}
}

func TestFieldAccelerationConsistentWithElevation(t *testing.T) {
	// Numerical second derivative of elevation ≈ VerticalAccel.
	f := newTestField(t, 3)
	p := geo.Vec2{X: 3, Y: 7}
	h := 1e-3
	for _, tm := range []float64{0.5, 10, 33.3} {
		num := (f.Elevation(p, tm+h) - 2*f.Elevation(p, tm) + f.Elevation(p, tm-h)) / (h * h)
		got := f.VerticalAccel(p, tm)
		if math.Abs(num-got) > 1e-3*(1+math.Abs(got)) {
			t.Errorf("t=%v: accel %v vs numerical %v", tm, got, num)
		}
	}
}

func TestFieldSlopeConsistentWithElevation(t *testing.T) {
	f := newTestField(t, 4)
	p := geo.Vec2{X: -2, Y: 11}
	h := 1e-4
	for _, tm := range []float64{1, 25} {
		sx := (f.Elevation(geo.Vec2{X: p.X + h, Y: p.Y}, tm) - f.Elevation(geo.Vec2{X: p.X - h, Y: p.Y}, tm)) / (2 * h)
		sy := (f.Elevation(geo.Vec2{X: p.X, Y: p.Y + h}, tm) - f.Elevation(geo.Vec2{X: p.X, Y: p.Y - h}, tm)) / (2 * h)
		got := f.Slope(p, tm)
		if math.Abs(got.X-sx) > 1e-4*(1+math.Abs(sx)) || math.Abs(got.Y-sy) > 1e-4*(1+math.Abs(sy)) {
			t.Errorf("t=%v: slope %v vs numerical (%v, %v)", tm, got, sx, sy)
		}
	}
}

func TestFieldSpectrumShape(t *testing.T) {
	// The synthesized z-acceleration spectrum must peak near the input
	// spectrum's peak frequency band — the "single peak concentration"
	// observation of Fig. 6(a) comes from this property.
	s, _ := NewPiersonMoskowitz(0.5, 4.0)
	f, err := NewField(FieldConfig{Spectrum: s, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const fs = 50.0
	n := int(fs * 600)
	series := make([]float64, n)
	for i := range series {
		series[i] = f.VerticalAccel(geo.Vec2{}, float64(i)/fs)
	}
	// Rough periodogram peak via Goertzel-like scan.
	bestF, bestP := 0.0, 0.0
	for ff := 0.05; ff < 2; ff += 0.01 {
		var re, im float64
		for i, v := range series {
			ang := 2 * math.Pi * ff * float64(i) / fs
			re += v * math.Cos(ang)
			im += v * math.Sin(ang)
		}
		p := re*re + im*im
		if p > bestP {
			bestF, bestP = ff, p
		}
	}
	// Acceleration spectrum is ω⁴-weighted so its peak sits slightly above
	// the elevation peak (0.25 Hz); accept 0.2–0.6 Hz.
	if bestF < 0.2 || bestF > 0.6 {
		t.Errorf("acceleration spectral peak at %v Hz, want in [0.2, 0.6]", bestF)
	}
}

func TestFieldConfigValidation(t *testing.T) {
	s, _ := NewPiersonMoskowitz(0.5, 4)
	cases := []FieldConfig{
		{},
		{Spectrum: s, NumFreqs: -1},
		{Spectrum: s, MinFreq: -1, MaxFreq: 2},
		{Spectrum: s, MinFreq: 2, MaxFreq: 1},
		{Spectrum: s, NumDirs: -2},
		{Spectrum: s, SpreadExp: -1},
	}
	for i, cfg := range cases {
		if _, err := NewField(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFieldDefaultsApplied(t *testing.T) {
	s, _ := NewPiersonMoskowitz(0.5, 4)
	f, err := NewField(FieldConfig{Spectrum: s})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumComponents() == 0 {
		t.Error("no components synthesized with defaults")
	}
}
