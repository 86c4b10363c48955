// Package eval regenerates every table and figure of the paper's
// evaluation (§V) plus the signal-processing figures of §III, from the
// synthetic substrates. Each experiment is a pure function of its
// parameters and a seed, so benches and the sidbench command produce
// identical numbers.
//
// The per-experiment index lives in DESIGN.md; measured-vs-paper notes in
// EXPERIMENTS.md.
package eval

import (
	"fmt"
	"math"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/ocean"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/wake"
)

// Scenario bundles the physical setting shared by the experiments: the
// ambient sea and an optional ship pass observed by one buoy.
type Scenario struct {
	// Hs, Tp parametrize the sea spectrum. The paper's deployment
	// (Fig. 5) shows z excursions of roughly ±200–300 counts, matching a
	// slight sea.
	Hs, Tp float64
	// Gamma selects a JONSWAP peak enhancement (> 1); 0 selects the
	// broader Pierson–Moskowitz shape.
	Gamma float64
	// ShipSpeed in m/s; 0 disables the ship.
	ShipSpeed float64
	// ShipDist is the buoy's perpendicular distance from the sailing line
	// (25 m is the paper's node deployment distance).
	ShipDist float64
	// WaveCoeff overrides the ship's wave-making coefficient when > 0.
	WaveCoeff float64
	// Drift enables the 2 m mooring drift.
	Drift bool
	// Seed drives all random streams.
	Seed int64
}

// DefaultScenario matches the paper's sea-trial conditions: a slight sea
// and a 10-knot fishing boat passing 25 m from the buoy.
func DefaultScenario() Scenario {
	return Scenario{
		Hs:        0.4,
		Tp:        6.0,
		Gamma:     3.3,
		ShipSpeed: geo.Knots(10),
		ShipDist:  25,
		Drift:     true,
	}
}

// Build materializes the scenario: a sensor on a buoy at the origin, the
// surface model, and (if a ship is configured) the ship, positioned so its
// wake front reaches the buoy at the requested arrival time.
func (sc Scenario) Build(arrival float64) (*sensor.Sensor, sensor.SurfaceModel, *wake.Ship, error) {
	var spec ocean.Spectrum
	var err error
	if sc.Gamma > 0 {
		spec, err = ocean.NewJONSWAP(sc.Hs, sc.Tp, sc.Gamma)
	} else {
		spec, err = ocean.NewPiersonMoskowitz(sc.Hs, sc.Tp)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	field, err := ocean.NewField(ocean.FieldConfig{Spectrum: spec, Seed: sc.Seed, BuoyRadius: 0.4})
	if err != nil {
		return nil, nil, nil, err
	}
	model := sensor.Composite{field}
	var ship *wake.Ship
	if sc.ShipSpeed > 0 {
		track := geo.NewLine(geo.Vec2{X: 0, Y: -sc.ShipDist}, geo.Vec2{X: 1, Y: 0})
		ship, err = wake.NewShip(track, sc.ShipSpeed, 12)
		if err != nil {
			return nil, nil, nil, err
		}
		if sc.WaveCoeff > 0 {
			ship.WaveCoeff = sc.WaveCoeff
		}
		ship.Time0 = arrival - (ship.ArrivalTime(geo.Vec2{}) - ship.Time0)
		model = append(model, ship.Wake())
	}
	drift := 0.0
	if sc.Drift {
		drift = 2
	}
	buoy := sensor.NewBuoy(sensor.BuoyConfig{DriftRadius: drift, Seed: sc.Seed ^ 0xb001})
	sens, err := sensor.NewSensor(buoy, sensor.DefaultAccelConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	return sens, model, ship, nil
}

// Record builds the scenario and records dur seconds of samples starting
// at t = 0, with the wake front (if any) arriving at the given time.
func (sc Scenario) Record(dur, arrival float64) ([]sensor.Sample, *wake.Ship, error) {
	sens, model, ship, err := sc.Build(arrival)
	if err != nil {
		return nil, nil, err
	}
	return sens.Record(model, 0, dur), ship, nil
}

// seriesStats is a tiny helper shared by the figure generators.
type seriesStats struct {
	Mean, Std, Min, Max float64
}

func statsOf(xs []float64) seriesStats {
	if len(xs) == 0 {
		return seriesStats{}
	}
	var s, s2 float64
	min, max := xs[0], xs[0]
	for _, x := range xs {
		s += x
		s2 += x * x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	n := float64(len(xs))
	mean := s / n
	variance := s2/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return seriesStats{Mean: mean, Std: math.Sqrt(variance), Min: min, Max: max}
}

func errf(format string, args ...interface{}) error { return fmt.Errorf("eval: "+format, args...) }

// buildSea constructs the standard evaluation sea: JONSWAP (γ = 3.3)
// with the buoy hull response, seeded deterministically.
func buildSea(hs, tp float64, seed int64) (*ocean.Field, error) {
	spec, err := ocean.NewJONSWAP(hs, tp, 3.3)
	if err != nil {
		return nil, err
	}
	return ocean.NewField(ocean.FieldConfig{Spectrum: spec, Seed: seed, BuoyRadius: 0.4})
}
