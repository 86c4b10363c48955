package eval

import (
	"math"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/wake"
)

func TestFig5Shape(t *testing.T) {
	sc := DefaultScenario()
	sc.Seed = 7
	r, err := Fig5(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Duration != 250 {
		t.Errorf("duration = %v", r.Duration)
	}
	// Paper's Fig. 5: z oscillates around 1 g (1024 counts), x/y around 0.
	if math.Abs(r.Z.Mean-1024) > 30 {
		t.Errorf("z mean = %v", r.Z.Mean)
	}
	if math.Abs(r.X.Mean) > 30 || math.Abs(r.Y.Mean) > 30 {
		t.Errorf("x/y means = %v, %v", r.X.Mean, r.Y.Mean)
	}
	if r.Z.Std < 5 || r.Z.Std > 300 {
		t.Errorf("z std = %v", r.Z.Std)
	}
}

func TestFig6Shape(t *testing.T) {
	sc := DefaultScenario()
	sc.Seed = 11
	r, err := Fig6N(sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The ship passage must move the dominant spectral peak into the wake
	// band far more often than the quiet sea puts it there, and raise the
	// wake-band energy substantially.
	if r.WakeBandFracShip <= r.WakeBandFracQuiet {
		t.Errorf("wake-band dominance: ship %v vs quiet %v",
			r.WakeBandFracShip, r.WakeBandFracQuiet)
	}
	if r.WakeBandFracShip < 0.5 {
		t.Errorf("ship wake-band fraction = %v, want ≥ 0.5", r.WakeBandFracShip)
	}
	if r.MeanShipWakeBandEnergyRatio < 3 {
		t.Errorf("wake-band energy ratio = %v, want ≥ 3", r.MeanShipWakeBandEnergyRatio)
	}
	if r.WakeFreq <= 0 || r.WakeFreq > 1 {
		t.Errorf("wake freq = %v", r.WakeFreq)
	}
}

func TestFig6Validation(t *testing.T) {
	sc := DefaultScenario()
	sc.ShipSpeed = 0
	if _, err := Fig6(sc); err == nil {
		t.Error("expected error without a ship")
	}
	if _, err := Fig6N(DefaultScenario(), 0); err == nil {
		t.Error("expected error for zero trials")
	}
}

func TestFig7Shape(t *testing.T) {
	sc := DefaultScenario()
	sc.Seed = 13
	r, err := Fig7(sc)
	if err != nil {
		t.Fatal(err)
	}
	// "Ship waves mainly focus on the low frequency spectrum."
	if r.LowBandFractionDuring < 0.7 {
		t.Errorf("low-band fraction = %v, want ≥ 0.7", r.LowBandFractionDuring)
	}
	if r.BurstRatio < 1.5 {
		t.Errorf("burst ratio = %v, want > 1.5", r.BurstRatio)
	}
	if r.PeakFreq <= 0 || r.PeakFreq > 1 {
		t.Errorf("peak freq = %v", r.PeakFreq)
	}
	sc.ShipSpeed = 0
	if _, err := Fig7(sc); err == nil {
		t.Error("expected error without a ship")
	}
}

func TestFig8Shape(t *testing.T) {
	sc := DefaultScenario()
	sc.Seed = 17
	r, err := Fig8(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The 1 Hz low-pass must annihilate the 2–25 Hz band...
	if r.HighBandPowerFiltered > r.HighBandPowerRaw/100 {
		t.Errorf("filter left %v of %v in the stopband",
			r.HighBandPowerFiltered, r.HighBandPowerRaw)
	}
	// ...while keeping the sub-1 Hz waves (std barely drops).
	if r.FilteredStd < r.RawStd/3 {
		t.Errorf("filter destroyed the passband: %v -> %v", r.RawStd, r.FilteredStd)
	}
	// Fig. 8b: the wake stands clear of the background after filtering.
	if r.DisturbanceRatio < 2 {
		t.Errorf("disturbance ratio = %v, want ≥ 2", r.DisturbanceRatio)
	}
	sc.ShipSpeed = 0
	if _, err := Fig8(sc); err == nil {
		t.Error("expected error without a ship")
	}
}

func TestFig11Shape(t *testing.T) {
	cfg := DefaultFig11Config()
	cfg.Ms = []float64{1, 3}
	cfg.AFs = []float64{0.4, 0.9}
	cfg.Trials = 4
	cfg.Scenario.Seed = 23
	pts, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(m, af float64) float64 {
		for _, p := range pts {
			if p.M == m && p.AF == af {
				return p.Ratio
			}
		}
		t.Fatalf("missing point M=%v af=%v", m, af)
		return 0
	}
	// Ratios rise with M at fixed af, and with af at fixed (high) M.
	if get(3, 0.9) <= get(1, 0.9) {
		t.Errorf("M=3 (%v) should beat M=1 (%v) at af=0.9", get(3, 0.9), get(1, 0.9))
	}
	if get(3, 0.9) <= get(3, 0.4) {
		t.Errorf("af=0.9 (%v) should beat af=0.4 (%v) at M=3", get(3, 0.9), get(3, 0.4))
	}
	for _, p := range pts {
		if p.Ratio < 0 || p.Ratio > 1 {
			t.Errorf("ratio out of range: %+v", p)
		}
	}
}

func TestFig11Validation(t *testing.T) {
	cfg := DefaultFig11Config()
	cfg.Trials = 0
	if _, err := Fig11(cfg); err == nil {
		t.Error("expected error for zero trials")
	}
	cfg = DefaultFig11Config()
	cfg.Ms = nil
	if _, err := Fig11(cfg); err == nil {
		t.Error("expected error for empty Ms")
	}
	cfg = DefaultFig11Config()
	cfg.Scenario.ShipSpeed = 0
	if _, err := Fig11(cfg); err == nil {
		t.Error("expected error for a scenario without a ship")
	}
}

func TestTablesShape(t *testing.T) {
	cfg := DefaultTableConfig()
	cfg.Ms = []float64{2}
	cfg.RowsSet = []int{4}
	cfg.Trials = 2
	cfg.Seed = 29
	t1, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != 1 || len(t2) != 1 {
		t.Fatalf("cells: %d, %d", len(t1), len(t2))
	}
	// The paper's core claim: intrusions correlate, false alarms do not.
	if t2[0].C <= t1[0].C {
		t.Errorf("ship C (%v) must exceed no-ship C (%v)", t2[0].C, t1[0].C)
	}
	if t2[0].C < 0.3 {
		t.Errorf("ship C = %v, want ≥ 0.3", t2[0].C)
	}
	if t1[0].C > 0.3 {
		t.Errorf("no-ship C = %v, want ≤ 0.3", t1[0].C)
	}
}

func TestTableValidation(t *testing.T) {
	cfg := DefaultTableConfig()
	cfg.Trials = 0
	if _, err := Table1(cfg); err == nil {
		t.Error("expected error for zero trials")
	}
	cfg = DefaultTableConfig()
	cfg.RowsSet = nil
	if _, err := Table2(cfg); err == nil {
		t.Error("expected error for empty rows")
	}
}

func TestFig12Shape(t *testing.T) {
	cfg := DefaultFig12Config()
	cfg.SpeedsKn = []float64{10}
	cfg.AnglesDeg = []float64{0, 20}
	cfg.RunsPerAngle = 2
	cfg.Seed = 31
	rows, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Runs == 0 {
		t.Fatal("no successful estimates")
	}
	// The paper's bracket: within ~20% of the actual speed (we allow a
	// little extra for the small sample here).
	if r.WorstRelErr > 0.30 {
		t.Errorf("worst relative error = %v", r.WorstRelErr)
	}
	if r.MinKn > r.MeanKn || r.MeanKn > r.MaxKn {
		t.Errorf("summary ordering broken: %+v", r)
	}
}

func TestFig12Validation(t *testing.T) {
	cfg := DefaultFig12Config()
	cfg.SpeedsKn = nil
	if _, err := Fig12(cfg); err == nil {
		t.Error("expected error for empty speeds")
	}
}

// TestWakeOnset: the shared onset picker finds a 12 kn wake within a few
// seconds of its front's arrival at a buoy 30 m off the track, and finds
// nothing at a buoy on still water.
func TestWakeOnset(t *testing.T) {
	ship, err := wake.NewShip(geo.NewLine(geo.Vec2{}, geo.Vec2{X: 1}), geo.Knots(12), 12)
	if err != nil {
		t.Fatal(err)
	}
	pos := geo.Vec2{Y: 30}
	ship.SetArrival(pos, 140)
	field, err := Sea(0.3, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	onset, err := WakeOnset(sensor.Composite{field, ship.Wake()}, pos, 9, 240)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(onset-140) > 3 {
		t.Errorf("onset %v s, front arrives at 140 s", onset)
	}
	if quiet, err := WakeOnset(sensor.StillWater{}, pos, 9, 240); err != nil || !math.IsNaN(quiet) {
		t.Errorf("still water: onset %v, err %v; want NaN", quiet, err)
	}
}

// TestScenarioBuildPasses: Build stages one ship pass per arrival, each
// front reaching the buoy at its arrival, and none without a ship speed.
func TestScenarioBuildPasses(t *testing.T) {
	sc := DefaultScenario()
	_, _, ships, err := sc.Build(90, 144, 198)
	if err != nil {
		t.Fatal(err)
	}
	if len(ships) != 3 {
		t.Fatalf("%d ships, want 3", len(ships))
	}
	for i, want := range []float64{90, 144, 198} {
		if at := ships[i].ArrivalTime(geo.Vec2{}); math.Abs(at-want) > 1e-9 {
			t.Errorf("pass %d reaches the buoy at %v, want %v", i, at, want)
		}
	}
	sc.ShipSpeed = 0
	if _, _, ships, err := sc.Build(90); err != nil || len(ships) != 0 {
		t.Errorf("no-ship scenario: %d ships, err %v", len(ships), err)
	}
}

func TestScenarioBuildValidation(t *testing.T) {
	sc := DefaultScenario()
	sc.Hs = -1
	if _, _, _, err := sc.Build(0); err == nil {
		t.Error("expected error for negative Hs")
	}
}

func TestStatsOf(t *testing.T) {
	s := statsOf([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("stats = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
	if z := statsOf(nil); z.Mean != 0 || z.Std != 0 {
		t.Errorf("empty stats = %+v", z)
	}
}
