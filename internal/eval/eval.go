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
	// Hs, Tp parametrize the sea's JONSWAP spectrum (Sea). The paper's
	// deployment (Fig. 5) shows z excursions of roughly ±200–300 counts,
	// matching a slight sea.
	Hs, Tp float64
	// ShipSpeed in m/s; 0 disables the ship.
	ShipSpeed float64
	// ShipDist is the buoy's perpendicular distance from the sailing line
	// (25 m is the paper's node deployment distance).
	ShipDist float64
	// WaveCoeff overrides the ship's wave-making coefficient when > 0.
	WaveCoeff float64
	// Seed drives all random streams.
	Seed int64
}

// DefaultScenario matches the paper's sea-trial conditions: a slight sea
// and a 10-knot fishing boat passing 25 m from the buoy.
func DefaultScenario() Scenario {
	return Scenario{
		Hs:        0.4,
		Tp:        6.0,
		ShipSpeed: geo.Knots(10),
		ShipDist:  25,
	}
}

// Build materializes the scenario: a sensor on a moored buoy at the
// origin, the surface model, and one ship pass per arrival time (none
// when ShipSpeed is 0), each positioned so its wake front reaches the
// buoy at that time.
func (sc Scenario) Build(arrivals ...float64) (*sensor.Sensor, sensor.SurfaceModel, []*wake.Ship, error) {
	field, err := Sea(sc.Hs, sc.Tp, sc.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	model := sensor.Composite{field}
	var ships []*wake.Ship
	for _, arrival := range arrivals {
		if sc.ShipSpeed <= 0 {
			break // no ship in the scenario
		}
		track := geo.NewLine(geo.Vec2{X: 0, Y: -sc.ShipDist}, geo.Vec2{X: 1, Y: 0})
		ship, err := wake.NewShip(track, sc.ShipSpeed, 12)
		if err != nil {
			return nil, nil, nil, err
		}
		if sc.WaveCoeff > 0 {
			ship.WaveCoeff = sc.WaveCoeff
		}
		ship.SetArrival(geo.Vec2{}, arrival)
		model = append(model, ship.Wake())
		ships = append(ships, ship)
	}
	sens, err := buoySensor(geo.Vec2{}, sc.Seed^0xb001)
	if err != nil {
		return nil, nil, nil, err
	}
	return sens, model, ships, nil
}

// Record builds the scenario and records dur seconds of samples starting
// at t = 0, with the wake front (if any) arriving at the given time.
func (sc Scenario) Record(dur, arrival float64) ([]sensor.Sample, *wake.Ship, error) {
	sens, model, ships, err := sc.Build(arrival)
	if err != nil {
		return nil, nil, err
	}
	var ship *wake.Ship
	if len(ships) > 0 {
		ship = ships[0]
	}
	return sens.Record(model, 0, dur), ship, nil
}

// Sea builds the standard evaluation sea: a JONSWAP spectrum (γ = 3.3)
// seen through the buoy hull's response, seeded deterministically.
func Sea(hs, tp float64, seed int64) (*ocean.Field, error) {
	spec, err := ocean.NewJONSWAP(hs, tp, 3.3)
	if err != nil {
		return nil, err
	}
	return ocean.NewField(ocean.FieldConfig{Spectrum: spec, Seed: seed, BuoyRadius: 0.4})
}

// buoySensor is the standard evaluation node: the default accelerometer on
// a buoy moored at pos with 2 m of mooring drift.
func buoySensor(pos geo.Vec2, seed int64) (*sensor.Sensor, error) {
	buoy := sensor.NewBuoy(sensor.BuoyConfig{Anchor: pos, DriftRadius: 2, Seed: seed})
	return sensor.NewSensor(buoy, sensor.DefaultAccelConfig())
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
