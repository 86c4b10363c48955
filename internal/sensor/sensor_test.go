package sensor

import (
	"math"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/ocean"
	"github.com/sid-wsn/sid/internal/stats"
	"github.com/sid-wsn/sid/internal/wake"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestQuantize(t *testing.T) {
	c := DefaultAccelConfig()
	if q := c.Quantize(1.0); q != 1024 {
		t.Errorf("Quantize(1g) = %d, want 1024", q)
	}
	if q := c.Quantize(0); q != 0 {
		t.Errorf("Quantize(0) = %d", q)
	}
	if q := c.Quantize(-1.0); q != -1024 {
		t.Errorf("Quantize(-1g) = %d", q)
	}
	// Clamping at ±2 g.
	if q := c.Quantize(5.0); q != 2047 {
		t.Errorf("Quantize(5g) = %d, want 2047", q)
	}
	if q := c.Quantize(-5.0); q != -2048 {
		t.Errorf("Quantize(-5g) = %d, want -2048", q)
	}
}

func TestCountsToGRoundTrip(t *testing.T) {
	c := DefaultAccelConfig()
	for _, g := range []float64{-1.5, -0.25, 0, 0.5, 1, 1.99} {
		got := c.CountsToG(c.Quantize(g))
		if math.Abs(got-g) > 1.0/c.CountsPerG {
			t.Errorf("round trip %v g -> %v", g, got)
		}
	}
}

func TestAccelConfigValidate(t *testing.T) {
	bad := []AccelConfig{
		{CountsPerG: 0, RangeG: 2, SampleRate: 50},
		{CountsPerG: 1024, RangeG: 0, SampleRate: 50},
		{CountsPerG: 1024, RangeG: 2, SampleRate: 0},
		{CountsPerG: 1024, RangeG: 2, SampleRate: 50, NoiseStd: -1},
	}
	for i, c := range bad {
		b := NewBuoy(BuoyConfig{})
		if _, err := NewSensor(b, c); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBuoyNoDrift(t *testing.T) {
	b := NewBuoy(BuoyConfig{Anchor: geo.Vec2{X: 10, Y: 20}})
	for _, tm := range []float64{0, 100, 5000} {
		if p := b.Position(tm); p != (geo.Vec2{X: 10, Y: 20}) {
			t.Errorf("drift-free buoy moved to %v", p)
		}
	}
}

func TestBuoyDriftBounded(t *testing.T) {
	b := NewBuoy(BuoyConfig{Anchor: geo.Vec2{X: 50, Y: 50}, DriftRadius: 2, Seed: 9})
	var maxDist float64
	for tm := 0.0; tm < 1000; tm += 0.5 {
		d := b.Position(tm).Dist(b.Anchor())
		if d > maxDist {
			maxDist = d
		}
	}
	if maxDist > 2.0+1e-9 {
		t.Errorf("drift %v exceeds radius 2", maxDist)
	}
	if maxDist < 0.2 {
		t.Errorf("drift %v suspiciously small — drift model inactive?", maxDist)
	}
}

func TestBuoyDriftReproducible(t *testing.T) {
	b1 := NewBuoy(BuoyConfig{DriftRadius: 2, Seed: 4})
	b2 := NewBuoy(BuoyConfig{DriftRadius: 2, Seed: 4})
	if b1.Position(123) != b2.Position(123) {
		t.Error("same seed, different drift")
	}
}

func TestStillWaterReadsOneG(t *testing.T) {
	b := NewBuoy(BuoyConfig{Seed: 1})
	cfg := DefaultAccelConfig()
	cfg.NoiseStd = 0
	s, err := NewSensor(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf BlockBuffers
	smp := s.SampleBlock(StillWater{}, 0, 1, &buf)[0]
	if smp.Z != 1024 {
		t.Errorf("still-water z = %d counts, want 1024", smp.Z)
	}
	if smp.X != 0 || smp.Y != 0 {
		t.Errorf("still-water x/y = %d/%d, want 0", smp.X, smp.Y)
	}
	if !almostEq(smp.ZG(cfg), 1, 1e-3) {
		t.Errorf("ZG = %v", smp.ZG(cfg))
	}
}

func oceanField(t *testing.T, seed int64) *ocean.Field {
	t.Helper()
	spec, err := ocean.NewPiersonMoskowitz(0.4, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ocean.NewField(ocean.FieldConfig{Spectrum: spec, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRecordOceanStatistics(t *testing.T) {
	// Reproduces the qualitative content of Fig. 5: z oscillates around
	// ~1024 counts (1 g), x/y oscillate around 0 with smaller amplitude.
	f := oceanField(t, 11)
	b := NewBuoy(BuoyConfig{Anchor: geo.Vec2{}, DriftRadius: 2, Seed: 3})
	s, err := NewSensor(b, DefaultAccelConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Record(f, 0, 250)
	if len(rec) != 250*50 {
		t.Fatalf("record length = %d", len(rec))
	}
	z := ZSeries(rec)
	mz, dz := stats.MeanStd(z)
	if math.Abs(mz-1024) > 30 {
		t.Errorf("z mean = %v counts, want ~1024", mz)
	}
	if dz < 10 || dz > 400 {
		t.Errorf("z std = %v counts, want tens to low hundreds", dz)
	}
	x := XSeries(rec)
	mx, _ := stats.MeanStd(x)
	if math.Abs(mx) > 30 {
		t.Errorf("x mean = %v counts, want ~0", mx)
	}
	// Time ordering and sample spacing.
	for i := 1; i < 200; i++ {
		if !almostEq(rec[i].T-rec[i-1].T, 0.02, 1e-9) {
			t.Fatalf("sample spacing broken at %d", i)
		}
	}
}

func TestWakeRaisesZVariance(t *testing.T) {
	// A ship pass must visibly disturb the z series relative to ocean-only —
	// the foundation of node-level detection.
	f := oceanField(t, 12)
	track := geo.NewLine(geo.Vec2{X: -500, Y: -25}, geo.Vec2{X: 1, Y: 0})
	ship, err := wake.NewShip(track, geo.Knots(10), 12)
	if err != nil {
		t.Fatal(err)
	}
	ship.Time0 = 0
	b := NewBuoy(BuoyConfig{Anchor: geo.Vec2{X: 0, Y: 0}, Seed: 7}) // 25 m off track
	cfg := DefaultAccelConfig()
	s, err := NewSensor(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrival := ship.ArrivalTime(b.Anchor())
	// Quiet window well before arrival vs disturbed window around arrival.
	quiet := s.Record(f, arrival-60, 20)
	s2, _ := NewSensor(NewBuoy(BuoyConfig{Anchor: geo.Vec2{X: 0, Y: 0}, Seed: 7}), cfg)
	disturbed := s2.Record(Composite{f, ship.Wake()}, arrival-2, 20)
	_, dQuiet := stats.MeanStd(ZSeries(quiet))
	_, dDist := stats.MeanStd(ZSeries(disturbed))
	if dDist < 1.3*dQuiet {
		t.Errorf("wake did not raise variance: quiet=%v disturbed=%v", dQuiet, dDist)
	}
}

func TestCompositeSums(t *testing.T) {
	f := oceanField(t, 13)
	c := Composite{f, StillWater{}}
	p := geo.Vec2{X: 5, Y: 5}
	if c.VerticalAccel(p, 3) != f.VerticalAccel(p, 3) {
		t.Error("composite with StillWater should equal the field alone")
	}
	c2 := Composite{f, f}
	if !almostEq(c2.VerticalAccel(p, 3), 2*f.VerticalAccel(p, 3), 1e-12) {
		t.Error("composite should sum contributions")
	}
	sl := c2.Slope(p, 3)
	single := f.Slope(p, 3)
	if !almostEq(sl.X, 2*single.X, 1e-12) || !almostEq(sl.Y, 2*single.Y, 1e-12) {
		t.Error("composite slope should sum")
	}
}

func TestNoiseIsReproducibleBySeed(t *testing.T) {
	cfg := DefaultAccelConfig()
	mk := func() []Sample {
		b := NewBuoy(BuoyConfig{Seed: 21})
		s, err := NewSensor(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Record(StillWater{}, 0, 1)
	}
	r1, r2 := mk(), mk()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("same seed produced different noise")
		}
	}
}

func TestSeriesExtractors(t *testing.T) {
	samples := []Sample{{T: 0, X: 1, Y: 2, Z: 3}, {T: 0.02, X: -4, Y: 5, Z: -6}}
	if x := XSeries(samples); x[0] != 1 || x[1] != -4 {
		t.Errorf("XSeries = %v", x)
	}
	if y := YSeries(samples); y[0] != 2 || y[1] != 5 {
		t.Errorf("YSeries = %v", y)
	}
	if z := ZSeries(samples); z[0] != 3 || z[1] != -6 {
		t.Errorf("ZSeries = %v", z)
	}
}

// exactSamples is the reference a recording approximates: VerticalAccel and
// Slope at the drifted buoy position for every sample from t0 on, composed
// with s's noise stream.
func exactSamples(s *Sensor, model SurfaceModel, t0 float64, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		tm := t0 + float64(i)/s.Accel.SampleRate
		p := s.Buoy.Position(tm)
		out[i] = s.compose(tm, model.VerticalAccel(p, tm), model.Slope(p, tm))
	}
	return out
}

// countDiffers fails the test when any channel of rec is more than one count
// from want, and returns how many channel samples differ at all.
func countDiffers(t *testing.T, rec, want []Sample) int {
	t.Helper()
	differ := 0
	for i, got := range rec {
		for _, d := range []int16{got.X - want[i].X, got.Y - want[i].Y, got.Z - want[i].Z} {
			if d != 0 {
				differ++
			}
			if d > 1 || d < -1 {
				t.Fatalf("sample %d: block engine %+v, exact %+v", i, got, want[i])
			}
		}
	}
	return differ
}

// driftingSensor returns a sensor on a buoy with 2 m drift.
func driftingSensor(t *testing.T) *Sensor {
	t.Helper()
	s, err := NewSensor(NewBuoy(BuoyConfig{DriftRadius: 2, Seed: 5}), DefaultAccelConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRecordMatchesExactWithinOneCount pins what recording through the
// block engine costs against the exact per-sample evaluation with the same
// noise stream. Over 400 s with 2 m drift and a 10 kn crossing, every
// channel stays within one count of the exact reading and fewer than 1 % of
// channel samples differ at all.
func TestRecordMatchesExactWithinOneCount(t *testing.T) {
	f := oceanField(t, 14)
	track := geo.NewLine(geo.Vec2{X: -1000, Y: -25}, geo.Vec2{X: 1, Y: 0})
	ship, err := wake.NewShip(track, geo.Knots(10), 12)
	if err != nil {
		t.Fatal(err)
	}
	ship.Time0 = 0
	const dur = 400
	if arr := ship.ArrivalTime(geo.Vec2{}); arr < 60 || arr > dur-60 {
		t.Fatalf("wake arrives at %.0f s, outside the recording", arr)
	}
	model := Composite{f, ship.Wake()}
	rec := driftingSensor(t).Record(model, 0, dur)
	ref := driftingSensor(t)
	if len(rec) != dur*int(ref.Accel.SampleRate) {
		t.Fatalf("record length = %d", len(rec))
	}
	differ := countDiffers(t, rec, exactSamples(ref, model, 0, len(rec)))
	if total := 3 * len(rec); differ*100 >= total {
		t.Errorf("%d of %d channel samples differ from the exact evaluation, want under 1 %%", differ, total)
	}
	t.Logf("%d of %d channel samples differ by one count", differ, 3*len(rec))
}

// TestRecordBlockSplit pins how Record cuts a recording into half-second
// blocks: any duration, from none through a lone short block to whole
// blocks plus a remainder, yields its samples from t0 on within one count
// of the exact evaluation, and each whole block reads the same whatever
// the recording's length, because a block's drift linearization and noise
// draws depend only on where it starts.
func TestRecordBlockSplit(t *testing.T) {
	f := oceanField(t, 21)
	const t0 = 17.3
	long := driftingSensor(t).Record(f, t0, 12)
	block := int(driftingSensor(t).Accel.SampleRate / 2)
	for _, tc := range []struct {
		name string
		dur  float64
		n    int
	}{
		{"empty", 0, 0},
		{"shorter than a block", 0.3, 15},
		{"whole blocks", 10, 500},
		{"short final block", 10.3, 515},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := driftingSensor(t).Record(f, t0, tc.dur)
			if len(rec) != tc.n {
				t.Fatalf("%g s recorded %d samples, want %d", tc.dur, len(rec), tc.n)
			}
			countDiffers(t, rec, exactSamples(driftingSensor(t), f, t0, len(rec)))
			for i := 0; i < tc.n/block*block; i++ {
				if rec[i] != long[i] {
					t.Fatalf("sample %d in a whole block: %+v, in a 12 s recording %+v", i, rec[i], long[i])
				}
			}
		})
	}
}
