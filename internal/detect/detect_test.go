package detect

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sid-wsn/sid/internal/dsp"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/ocean"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/wake"
)

// synth builds a z-count series of dur seconds for a buoy at pos, over a
// smooth sea, optionally with a ship whose wake front reaches the buoy at
// the returned arrival time.
func synth(t *testing.T, pos geo.Vec2, dur float64, withShip bool, seed int64) (z []float64, arrival float64) {
	t.Helper()
	spec, err := ocean.NewPiersonMoskowitz(0.25, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	field, err := ocean.NewField(ocean.FieldConfig{Spectrum: spec, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	model := sensor.Composite{field}
	arrival = math.NaN()
	if withShip {
		// Track parallel to X, 25 m south of the origin row; the buoy at
		// pos sees the front mid-recording.
		track := geo.NewLine(geo.Vec2{X: 0, Y: pos.Y - 25}, geo.Vec2{X: 1, Y: 0})
		ship, err := wake.NewShip(track, geo.Knots(10), 12)
		if err != nil {
			t.Fatal(err)
		}
		// Position the ship so the wake arrives at 60% of the recording.
		ship.Time0 = 0
		raw := ship.ArrivalTime(pos)
		ship.Time0 = dur*0.6 - raw
		arrival = ship.ArrivalTime(pos)
		model = append(model, ship.Wake())
	}
	b := sensor.NewBuoy(sensor.BuoyConfig{Anchor: pos, DriftRadius: 2, Seed: seed})
	sn, err := sensor.NewSensor(b, sensor.DefaultAccelConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := sn.Record(model, 0, dur)
	return sensor.ZSeries(rec), arrival
}

// reportsIn keeps the windows that pass d's af threshold, as reports.
func reportsIn(d *Detector, windows []WindowStat) []Report {
	var out []Report
	for _, ws := range windows {
		if d.Detected(ws) {
			out = append(out, d.ReportOf(ws))
		}
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		c := DefaultConfig()
		mut(&c)
		return c
	}
	bad := []Config{
		mk(func(c *Config) { c.M = 0 }),
		mk(func(c *Config) { c.AnomalyWindow = -1 }),
		mk(func(c *Config) { c.AnomalyThreshold = 0 }),
		mk(func(c *Config) { c.AnomalyThreshold = 1.5 }),
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestThresholdBeforeInit(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(d.Threshold()) {
		t.Errorf("pre-init threshold = %v, want NaN", d.Threshold())
	}
}

func TestFalseAlarmsRareOnCalmSea(t *testing.T) {
	// Node-level false alarms are expected occasionally (the paper's
	// Fig. 11 shows only ~70% node-level reliability at M=2, af=60% —
	// that is why the cluster level exists), but they must stay rare.
	z, _ := synth(t, geo.Vec2{}, 300, false, 31)
	d, err := New(DefaultConfig()) // M=2, af=0.6
	if err != nil {
		t.Fatal(err)
	}
	windows := d.ProcessSeries(0, z)
	if len(windows) == 0 {
		t.Fatal("no windows produced")
	}
	reports := reportsIn(d, windows)
	if len(reports) > 3 {
		t.Errorf("%d false detections in %d windows — too many", len(reports), len(windows))
	}
	// At M=3 with a high af requirement, the calm sea must be silent.
	strict := DefaultConfig()
	strict.M = 3
	strict.AnomalyThreshold = 0.9
	ds, err := New(strict)
	if err != nil {
		t.Fatal(err)
	}
	if r := reportsIn(ds, ds.ProcessSeries(0, z)); len(r) != 0 {
		t.Errorf("strict detector false alarms: %+v", r)
	}
}

func TestDetectsShipPass(t *testing.T) {
	pos := geo.Vec2{X: 300, Y: 0}
	z, arrival := synth(t, pos, 400, true, 32)
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	windows := d.ProcessSeries(0, z)
	reports := reportsIn(d, windows)
	if len(reports) == 0 {
		t.Fatal("ship pass not detected")
	}
	// At least one report's onset must fall near the wake packet
	// (front arrival .. arrival + ~3 durations).
	found := false
	for _, r := range reports {
		if r.Onset >= arrival-2 && r.Onset <= arrival+15 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no report near arrival %v; reports %+v", arrival, reports)
	}
}

func TestZScoreModeAlsoDetects(t *testing.T) {
	pos := geo.Vec2{X: 300, Y: 0}
	z, arrival := synth(t, pos, 400, true, 33)
	cfg := DefaultConfig()
	cfg.Mode = ThresholdModeZScore
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := reportsIn(d, d.ProcessSeries(0, z))
	if len(reports) == 0 {
		t.Fatal("z-score mode missed the ship")
	}
	near := false
	for _, r := range reports {
		if r.Onset >= arrival-2 && r.Onset <= arrival+15 {
			near = true
		}
	}
	if !near {
		t.Errorf("z-score reports not near arrival %v: %+v", arrival, reports)
	}
}

func TestEnergyDecreasesWithDistance(t *testing.T) {
	// The same pass observed farther from the travel line yields lower
	// crossing energy — the ordering C_re relies on.
	run := func(offset float64) float64 {
		spec, _ := ocean.NewPiersonMoskowitz(0.25, 4.0)
		field, _ := ocean.NewField(ocean.FieldConfig{Spectrum: spec, Seed: 40})
		track := geo.NewLine(geo.Vec2{X: 0, Y: -25}, geo.Vec2{X: 1, Y: 0})
		ship, _ := wake.NewShip(track, geo.Knots(10), 12)
		pos := geo.Vec2{X: 300, Y: offset}
		ship.Time0 = 240 - ship.ArrivalTime(pos)
		b := sensor.NewBuoy(sensor.BuoyConfig{Anchor: pos, Seed: 41})
		sn, _ := sensor.NewSensor(b, sensor.DefaultAccelConfig())
		rec := sn.Record(sensor.Composite{field, ship.Wake()}, 0, 400)
		cfg := DefaultConfig()
		cfg.AnomalyThreshold = 0.3
		d, _ := New(cfg)
		reports := reportsIn(d, d.ProcessSeries(0, sensor.ZSeries(rec)))
		var maxE float64
		for _, r := range reports {
			if r.Energy > maxE {
				maxE = r.Energy
			}
		}
		return maxE
	}
	near := run(0)  // 25 m from track
	far := run(100) // 125 m from track
	if near == 0 {
		t.Fatal("near node saw nothing")
	}
	if far >= near {
		t.Errorf("energy ordering violated: near=%v far=%v", near, far)
	}
}

func TestAdaptiveThresholdTracksSeaState(t *testing.T) {
	// Feed a calm sea, then a rough sea; the threshold must rise.
	mkSeries := func(hs float64, seed int64, dur float64) []float64 {
		spec, _ := ocean.NewPiersonMoskowitz(hs, 4.0)
		field, _ := ocean.NewField(ocean.FieldConfig{Spectrum: spec, Seed: seed})
		b := sensor.NewBuoy(sensor.BuoyConfig{Seed: seed})
		sn, _ := sensor.NewSensor(b, sensor.DefaultAccelConfig())
		return sensor.ZSeries(sn.Record(field, 0, dur))
	}
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	calm := mkSeries(0.1, 50, 200)
	d.ProcessSeries(0, calm)
	calmThresh := d.Threshold()
	rough := mkSeries(0.8, 51, 600)
	d.ProcessSeries(200, rough)
	roughThresh := d.Threshold()
	if math.IsNaN(calmThresh) || math.IsNaN(roughThresh) {
		t.Fatal("threshold not initialized")
	}
	if roughThresh < 2*calmThresh {
		t.Errorf("threshold did not adapt: calm=%v rough=%v", calmThresh, roughThresh)
	}
}

func TestFreezeAfterWarmup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FreezeAfterWarmup = true
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	z, _ := synth(t, geo.Vec2{}, 120, false, 52)
	d.ProcessSeries(0, z)
	frozen := d.Threshold()
	// Push a much rougher sea; threshold must not move.
	spec, _ := ocean.NewPiersonMoskowitz(1.5, 5.0)
	field, _ := ocean.NewField(ocean.FieldConfig{Spectrum: spec, Seed: 53})
	b := sensor.NewBuoy(sensor.BuoyConfig{Seed: 53})
	sn, _ := sensor.NewSensor(b, sensor.DefaultAccelConfig())
	rough := sensor.ZSeries(sn.Record(field, 120, 200))
	d.ProcessSeries(120, rough)
	if d.Threshold() != frozen {
		t.Errorf("frozen threshold moved: %v -> %v", frozen, d.Threshold())
	}
}

func TestWindowCadence(t *testing.T) {
	cfg := DefaultConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 50 * 120 // 120 s
	z := make([]float64, n)
	for i := range z {
		z[i] = 1024
	}
	windows := d.ProcessSeries(0, z)
	// Warmup consumes 5 stat windows + filter settling (~12 s); sliding
	// windows are evaluated every hop = 1 s. Expect roughly 105 windows.
	if len(windows) < 100 || len(windows) > 110 {
		t.Errorf("window count = %d", len(windows))
	}
	for i := 1; i < len(windows); i++ {
		// Evaluations advance by the hop (1 s)...
		if gap := windows[i].Start - windows[i-1].Start; math.Abs(gap-1) > 1e-6 {
			t.Fatalf("window %d start gap = %v, want 1 s", i, gap)
		}
		// ...and each spans the full Δt window (2 s).
		span := windows[i].End - windows[i].Start
		if math.Abs(span-(99.0/50.0)) > 1e-6 {
			t.Fatalf("window %d span = %v", i, span)
		}
	}
}

func TestConstantSignalNoCrossings(t *testing.T) {
	d, _ := New(DefaultConfig())
	n := 50 * 60
	z := make([]float64, n)
	for i := range z {
		z[i] = 1024
	}
	for _, ws := range d.ProcessSeries(0, z) {
		if ws.Crossings != 0 || ws.AnomalyFreq != 0 {
			t.Fatalf("constant signal produced crossings: %+v", ws)
		}
		if !math.IsNaN(ws.Onset) {
			t.Fatalf("onset should be NaN with no crossings: %+v", ws)
		}
		if ws.Energy != 0 {
			t.Fatalf("energy should be 0 with no crossings: %+v", ws)
		}
	}
}

func TestStepDisturbanceOnsetTiming(t *testing.T) {
	// A burst injected at a known time must produce a report whose onset is
	// within a second of it (group-delay compensation works).
	cfg := DefaultConfig()
	cfg.AnomalyThreshold = 0.3
	d, _ := New(cfg)
	n := 50 * 120
	z := make([]float64, n)
	for i := range z {
		z[i] = 1024 + 20*math.Sin(2*math.Pi*0.2*float64(i)/50) // mild swell
	}
	burstStart := 80.0
	for i := int(burstStart * 50); i < int((burstStart+3)*50); i++ {
		z[i] += 300 * math.Sin(2*math.Pi*0.5*float64(i)/50)
	}
	reports := reportsIn(d, d.ProcessSeries(0, z))
	if len(reports) == 0 {
		t.Fatal("burst not detected")
	}
	best := math.Inf(1)
	for _, r := range reports {
		if diff := math.Abs(r.Onset - burstStart); diff < best {
			best = diff
		}
	}
	if best > 2.5 {
		t.Errorf("onset error %v s too large", best)
	}
}

func TestHigherMFewerCrossings(t *testing.T) {
	z, _ := synth(t, geo.Vec2{}, 300, false, 60)
	count := func(m float64) int {
		cfg := DefaultConfig()
		cfg.M = m
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, ws := range d.ProcessSeries(0, z) {
			total += ws.Crossings
		}
		return total
	}
	c1, c3 := count(1), count(3)
	if c3 >= c1 {
		t.Errorf("M=3 crossings (%d) should be below M=1 (%d)", c3, c1)
	}
}

func TestThresholdModeString(t *testing.T) {
	if ThresholdModePaper.String() != "paper" || ThresholdModeZScore.String() != "zscore" {
		t.Error("mode strings wrong")
	}
	if ThresholdMode(9).String() != "ThresholdMode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestDetectedAndReportOf(t *testing.T) {
	d, _ := New(DefaultConfig()) // af threshold 0.6
	ws := WindowStat{AnomalyFreq: 0.7, Onset: 5, Energy: 42}
	if !d.Detected(ws) {
		t.Error("0.7 ≥ 0.6 should detect")
	}
	if d.Detected(WindowStat{AnomalyFreq: 0.5}) {
		t.Error("0.5 < 0.6 should not detect")
	}
	r := d.ReportOf(ws)
	if r.Onset != 5 || r.Energy != 42 || r.AnomalyFreq != 0.7 {
		t.Errorf("report = %+v", r)
	}
}

// sameWindow reports whether two window stats are equal bit for bit (NaN
// onsets included).
func sameWindow(a, b WindowStat) bool {
	fa := [...]float64{a.Start, a.End, a.AnomalyFreq, a.Energy, a.Onset, a.Threshold, a.Mean, a.Std}
	fb := [...]float64{b.Start, b.End, b.AnomalyFreq, b.Energy, b.Onset, b.Threshold, b.Mean, b.Std}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Crossings == b.Crossings
}

// TestPushBlockMatchesPush: over a ship-pass series cut into random block
// lengths (1 to 200 samples, so some blocks span several filter chunks),
// PushBlock yields the same windows at the same samples as Push, for the
// default detector and for the other gate, threshold and freeze settings.
func TestPushBlockMatchesPush(t *testing.T) {
	z, _ := synth(t, geo.Vec2{X: 50, Y: 0}, 180, true, 7)
	cfgs := map[string]func(*Config){
		"default":       func(*Config) {},
		"sample-zscore": func(c *Config) { c.Gate, c.Mode = GateSample, ThresholdModeZScore },
		"frozen":        func(c *Config) { c.FreezeAfterWarmup = true },
	}
	for name, mut := range cfgs {
		cfg := DefaultConfig()
		mut(&cfg)
		times := make([]float64, len(z))
		for i := range times {
			times[i] = 3 + float64(i)/SampleRate
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []BlockWindow
		for i := range z {
			if ws, ok := ref.Push(times[i], z[i]); ok {
				want = append(want, BlockWindow{At: i, Stat: ws})
			}
		}
		crossed := 0
		for _, w := range want {
			if w.Stat.Crossings > 0 {
				crossed++
			}
		}
		if len(want) < 100 || crossed == 0 {
			t.Fatalf("%s: Push gives %d windows, %d with crossings", name, len(want), crossed)
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			det, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got, blk []BlockWindow
			for off := 0; off < len(z); {
				n := min(1+rng.Intn(200), len(z)-off)
				blk = det.PushBlock(times[off:off+n], z[off:off+n], blk[:0])
				for _, w := range blk {
					got = append(got, BlockWindow{At: off + w.At, Stat: w.Stat})
				}
				off += n
			}
			if len(got) != len(want) {
				t.Fatalf("%s, split %d: %d windows, Push gives %d", name, seed, len(got), len(want))
			}
			for i := range want {
				if got[i].At != want[i].At || !sameWindow(got[i].Stat, want[i].Stat) {
					t.Fatalf("%s, split %d: window %d = %+v, Push gives %+v", name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDetectorsShareLowPass: LowPass is the §IV-B design (a 1 Hz cutoff,
// 101 Hamming-windowed taps at 50 Hz), made once and returned on every
// call, and the detector's start-up constants follow from it.
func TestDetectorsShareLowPass(t *testing.T) {
	fresh, err := dsp.LowPassFIR(1, 50, 101, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	lp := LowPass()
	if LowPass() != lp {
		t.Fatal("LowPass returns a new design on each call")
	}
	if len(lp.Taps) != len(fresh.Taps) {
		t.Fatalf("LowPass has %d taps, want %d", len(lp.Taps), len(fresh.Taps))
	}
	for i, c := range fresh.Taps {
		if math.Float64bits(lp.Taps[i]) != math.Float64bits(c) {
			t.Fatalf("tap %d = %v, the design gives %v", i, lp.Taps[i], c)
		}
	}
	if filterDelay != 1 {
		t.Errorf("filter delay = %v s, want 1 s (50 samples at 50 Hz)", filterDelay)
	}
	if settleSamples != 101 || warmupSamples != warmupWindows*statWindow+101 {
		t.Errorf("settle %d, warmup %d samples", settleSamples, warmupSamples)
	}
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A new detector's filter state is its 100-sample delay line alone.
	if got := d.stream.MemBytes(); got != 100*8 {
		t.Errorf("new detector's filter holds %d B, want %d", got, 100*8)
	}
}

// TestBatchOnlyUnderGateSample: only GateSample stores normal samples in
// the batch buffer, so only it allocates one. Under GateWindow the buffer
// stays absent however long the detector runs, and a new detector's
// MemBytes is smaller by exactly the buffer's statWindow samples.
func TestBatchOnlyUnderGateSample(t *testing.T) {
	win, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Gate = GateSample
	smp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if win.batch != nil {
		t.Errorf("GateWindow detector allocates a batch of %d", cap(win.batch))
	}
	if cap(smp.batch) != statWindow {
		t.Errorf("GateSample batch capacity = %d, want %d", cap(smp.batch), statWindow)
	}
	if diff := smp.MemBytes() - win.MemBytes(); diff != statWindow*8 {
		t.Errorf("GateSample detector is %d B larger, want %d", diff, statWindow*8)
	}
	z, _ := synth(t, geo.Vec2{X: 50, Y: 0}, 120, true, 3)
	for i, v := range z {
		ts := float64(i) / SampleRate
		win.Push(ts, v)
		smp.Push(ts, v)
	}
	if win.batch != nil {
		t.Errorf("GateWindow detector grew a batch of %d", cap(win.batch))
	}
	if cap(smp.batch) != statWindow {
		t.Errorf("GateSample batch grew to %d, want %d", cap(smp.batch), statWindow)
	}
}
