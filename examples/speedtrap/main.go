// Speedtrap: the four-node speed-estimation geometry of Fig. 10. Two
// vertical node pairs straddle a shipping lane; the Kelvin cusp sweeps
// them in order, and eqs. (14)–(16) turn the four detection timestamps
// into the intruder's speed and heading — using nothing but the fixed
// 19°28′ wake angle.
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/sid-wsn/sid/internal/eval"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/speed"
	"github.com/sid-wsn/sid/internal/wake"
)

func main() {
	const (
		d       = 25.0 // deployment distance (m)
		actual  = 12.0 // knots
		heading = 15.0 // degrees
		arrival = 140.0
		dur     = 240.0
	)
	// Fig. 10 layout: pair i north of the lane, pair j south of it.
	positions := []geo.Vec2{
		{X: 0, Y: 30}, {X: 0, Y: 30 + d},
		{X: 60, Y: -30 - d}, {X: 60, Y: -30},
	}
	phi := geo.Deg(heading)
	track := geo.NewLine(geo.Vec2{}, geo.Vec2{X: math.Cos(phi), Y: math.Sin(phi)})
	ship, err := wake.NewShip(track, geo.Knots(actual), 12)
	if err != nil {
		log.Fatal(err)
	}
	ship.SetArrival(positions[0], arrival)

	field, err := eval.Sea(0.3, 6, 5)
	if err != nil {
		log.Fatal(err)
	}
	model := sensor.Composite{field, ship.Wake()}

	fmt.Printf("lane watch: %.0f kn vessel, heading %.0f°; four buoys at D = %.0f m\n\n", actual, heading, d)
	names := []string{"Si ", "S'i", "Sj ", "S'j"}
	onsets := make([]float64, 4)
	for i, pos := range positions {
		// Earliest onset among the strongest detection windows — the
		// report the paper keeps ("highest detected energy").
		onset, err := eval.WakeOnset(model, pos, int64(i)+9, dur)
		if err != nil {
			log.Fatal(err)
		}
		if math.IsNaN(onset) {
			log.Fatalf("node %s saw no wake", names[i])
		}
		onsets[i] = onset
		fmt.Printf("  %s at %v: wake front detected at t=%6.2f s (true arrival %6.2f s)\n",
			names[i], pos, onset, ship.ArrivalTime(pos))
	}

	est, err := speed.Estimate4(onsets[0], onsets[1], onsets[2], onsets[3], d)
	if err != nil {
		log.Fatal(err)
	}
	estKn := geo.ToKnots(est.Speed)
	fmt.Printf("\neqs. (14)-(16) with θ = 20°:\n")
	fmt.Printf("  pair estimates: %.1f / %.1f kn\n", geo.ToKnots(est.SpeedI), geo.ToKnots(est.SpeedJ))
	fmt.Printf("  speed %.1f kn (actual %.1f, error %.1f%%), heading %.0f° (actual %.0f°)\n",
		estKn, actual, 100*math.Abs(estKn-actual)/actual, geo.ToDeg(geo.NormalizeAngle(est.Alpha)), heading)

	// The same estimation as the cluster head would run it, with assigned
	// positions (EstimateFromDetections resolves the travel direction).
	dets := make([]speed.Detection, 4)
	for i := range positions {
		dets[i] = speed.Detection{Pos: positions[i], Time: onsets[i], Energy: 1}
	}
	if est2, err := speed.EstimateFromDetections(dets, track, d); err == nil {
		dir := "outbound"
		if !est2.Forward {
			dir = "inbound"
		}
		fmt.Printf("  cluster-head view: %.1f kn, %s\n", geo.ToKnots(est2.Speed), dir)
	}
}
