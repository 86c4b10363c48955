package eval

import (
	"math"

	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/speed"
	"github.com/sid-wsn/sid/internal/wake"
)

// Fig12Row is one bar group of Fig. 12: actual vs estimated ship speed.
type Fig12Row struct {
	// ActualKn is the true ship speed in knots.
	ActualKn float64
	// MinKn, MeanKn, MaxKn summarize the estimates across runs.
	MinKn, MeanKn, MaxKn float64
	// WorstRelErr is the largest |estimate−actual|/actual observed.
	WorstRelErr float64
	// Runs is the number of successful estimates.
	Runs int
	// Failures counts runs where no estimate could be formed.
	Failures int
}

// Fig12Config parametrizes the speed-estimation evaluation: four nodes in
// the Fig. 10 layout (two vertical pairs straddling the sailing line at
// deployment distance D = 25 m), the two speed levels of the paper, and a
// sweep of crossing angles.
type Fig12Config struct {
	// SpeedsKn are the actual ship speeds in knots (10 and 16).
	SpeedsKn []float64
	// AnglesDeg are the crossing angles α between the sailing line and
	// the row axis.
	AnglesDeg []float64
	// RunsPerAngle repeats each angle with different seeds.
	RunsPerAngle int
	// Hs, Tp set the ambient sea.
	Hs, Tp float64
	// SyncRMS is the clock residual applied to each node's timestamps
	// (seconds); models post-sync WSN clocks.
	SyncRMS float64
	// Seed drives all streams.
	Seed int64
}

// DefaultFig12Config matches the paper's setup.
func DefaultFig12Config() Fig12Config {
	return Fig12Config{
		SpeedsKn:     []float64{10, 16},
		AnglesDeg:    []float64{0, 10, 20, 30},
		RunsPerAngle: 5,
		Hs:           0.4,
		Tp:           6.0,
		SyncRMS:      0.005,
		Seed:         1,
	}
}

// Fig12 runs the four-node speed estimation over crossing angles and
// seeds and summarizes the estimates per actual speed.
func Fig12(cfg Fig12Config) ([]Fig12Row, error) {
	if len(cfg.SpeedsKn) == 0 || len(cfg.AnglesDeg) == 0 || cfg.RunsPerAngle <= 0 {
		return nil, errf("Fig12: speeds, angles and runs must be non-empty/positive")
	}
	var out []Fig12Row
	for _, kn := range cfg.SpeedsKn {
		row := Fig12Row{ActualKn: kn, MinKn: math.Inf(1), MaxKn: math.Inf(-1)}
		var sum float64
		for _, angle := range cfg.AnglesDeg {
			for run := 0; run < cfg.RunsPerAngle; run++ {
				seed := cfg.Seed + int64(run)*6151 + int64(angle*100+kn*10)
				estKn, ok, err := fig12Run(cfg, kn, angle, seed)
				if err != nil {
					return nil, errf("Fig12: speed %g kn, angle %g°, run %d: %v", kn, angle, run, err)
				}
				if !ok {
					row.Failures++
					continue
				}
				row.Runs++
				sum += estKn
				if estKn < row.MinKn {
					row.MinKn = estKn
				}
				if estKn > row.MaxKn {
					row.MaxKn = estKn
				}
				if rel := math.Abs(estKn-kn) / kn; rel > row.WorstRelErr {
					row.WorstRelErr = rel
				}
			}
		}
		if row.Runs > 0 {
			row.MeanKn = sum / float64(row.Runs)
		}
		out = append(out, row)
	}
	return out, nil
}

// fig12Run simulates one crossing observed by the four-node configuration
// and returns the estimated speed in knots. ok=false means the run produced
// no usable estimate (a legitimate outcome Fig. 12 counts as a failure); a
// non-nil error means the simulation itself could not be built and must
// abort the whole evaluation rather than masquerade as a failed estimate.
func fig12Run(cfg Fig12Config, actualKn, angleDeg float64, seed int64) (float64, bool, error) {
	const (
		d       = 25.0 // deployment distance
		dur     = 240.0
		arrival = 140.0
	)
	v := geo.Knots(actualKn)
	phi := geo.Deg(angleDeg)
	// Fig. 10 layout: pair i above the line, pair j below, both pairs
	// vertical (+Y) with separation D. The sailing line passes between
	// them at angle phi to the X axis.
	positions := []geo.Vec2{
		{X: 0, Y: 30},       // Si
		{X: 0, Y: 30 + d},   // S'i
		{X: 60, Y: -30 - d}, // Sj
		{X: 60, Y: -30},     // S'j
	}
	track := geo.NewLine(geo.Vec2{X: 0, Y: 0}, geo.Vec2{X: math.Cos(phi), Y: math.Sin(phi)})
	ship, err := wake.NewShip(track, v, 12)
	if err != nil {
		return 0, false, err
	}
	// Time the front to reach Si around the arrival mark.
	ship.SetArrival(positions[0], arrival)

	field, err := Sea(cfg.Hs, cfg.Tp, seed)
	if err != nil {
		return 0, false, err
	}
	model := sensor.Composite{field, ship.Wake()}

	clockRNG := newClockRNG(seed, cfg.SyncRMS)
	onsets := make([]float64, len(positions))
	for i, pos := range positions {
		onset, err := WakeOnset(model, pos, seed^int64(i)*6131, dur)
		if err != nil {
			return 0, false, err
		}
		if math.IsNaN(onset) {
			return 0, false, nil // node saw no wake: no estimate
		}
		onsets[i] = onset + clockRNG(i)
	}
	// Cross-node sanity: one wake sweep crosses the four-node block in
	// well under half a minute at any plausible speed; onsets farther
	// apart mix different events.
	minO, maxO := onsets[0], onsets[0]
	for _, o := range onsets[1:] {
		minO = math.Min(minO, o)
		maxO = math.Max(maxO, o)
	}
	if maxO-minO > 60 {
		return 0, false, nil // onsets mix different events: no estimate
	}
	est, err := speed.Estimate4(onsets[0], onsets[1], onsets[2], onsets[3], d)
	if err != nil {
		return 0, false, nil // degenerate timestamps: no estimate
	}
	// Consistency gate: the two pair estimates measure the same ship; a
	// gross disagreement means a node's onset was corrupted (a false
	// alarm out-shouted the wake) and the configuration is unusable —
	// the cluster head would wait for better data.
	if finiteSpeed(est.SpeedI) && finiteSpeed(est.SpeedJ) {
		hi, lo := est.SpeedI, est.SpeedJ
		if lo > hi {
			hi, lo = lo, hi
		}
		if lo <= 0 || hi/lo > 2 {
			return 0, false, nil // inconsistent pair estimates: no estimate
		}
	}
	kn := geo.ToKnots(est.Speed)
	// Plausibility gate: harbor intruders move at a few to a few tens of
	// knots; an estimate far outside means the onsets mixed two different
	// events (noise and wake) and the configuration is unusable.
	if kn < 3 || kn > 30 {
		return 0, false, nil // implausible estimate: no estimate
	}
	return kn, true, nil
}

// WakeOnset records dur seconds of model, from t = 0, at an evaluation
// buoy moored at pos, runs the node detector over it (af = 0.5) and
// returns the onset of the node's wake report, or NaN when no window
// passes. The paper keeps "the reports which have the highest detected
// energy"; the wake is the strongest event, but trailing noise can come
// within a whisker of it, so the onset is the earliest among the detected
// windows within 70% of the maximum energy.
func WakeOnset(model sensor.SurfaceModel, pos geo.Vec2, seed int64, dur float64) (float64, error) {
	sens, err := buoySensor(pos, seed)
	if err != nil {
		return 0, err
	}
	dcfg := detect.DefaultConfig()
	dcfg.AnomalyThreshold = 0.5
	det, err := detect.New(dcfg)
	if err != nil {
		return 0, err
	}
	windows := det.ProcessSeries(0, sensor.ZSeries(sens.Record(model, 0, dur)))
	maxE := math.Inf(-1)
	for _, ws := range windows {
		if det.Detected(ws) && ws.Energy > maxE {
			maxE = ws.Energy
		}
	}
	onset := math.NaN()
	for _, ws := range windows {
		if !det.Detected(ws) || math.IsNaN(ws.Onset) || ws.Energy < 0.7*maxE {
			continue
		}
		if math.IsNaN(onset) || ws.Onset < onset {
			onset = ws.Onset
		}
	}
	return onset, nil
}

func finiteSpeed(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// newClockRNG returns a deterministic per-node clock residual generator.
func newClockRNG(seed int64, rms float64) func(i int) float64 {
	return func(i int) float64 {
		// Cheap splitmix-style hash onto a symmetric residual.
		x := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		u := float64(x%2000000)/1000000 - 1 // uniform in [-1, 1)
		return u * rms * math.Sqrt(3)       // scaled so the std equals rms
	}
}
