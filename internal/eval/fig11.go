package eval

import (
	"math"

	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/sensor"
)

// Fig11Point is one curve point of Fig. 11: the successful detection ratio
// of a single node at threshold multiplier M and anomaly-frequency
// requirement AF.
type Fig11Point struct {
	M     float64
	AF    float64
	Ratio float64
}

// Fig11Config parametrizes the node-level evaluation.
type Fig11Config struct {
	// Ms are the threshold multipliers (the paper plots 1, 1.5, 2, 2.5, 3).
	Ms []float64
	// AFs are the anomaly-frequency requirements (the paper's x axis runs
	// 40–100%).
	AFs []float64
	// Trials per (M, AF) point.
	Trials int
	// PassesPerTrial is the number of ship passes in each 400 s trial
	// (the paper's sea trials ran many passes; the precision-style ratio
	// depends on the traffic mix, so it is explicit here).
	PassesPerTrial int
	// Scenario is the per-trial setting (ship at D = 25 m).
	Scenario Scenario
}

// DefaultFig11Config returns the paper's grid.
func DefaultFig11Config() Fig11Config {
	sc := DefaultScenario()
	// Calibrated so the D = 25 m wake saturates the anomaly frequency the
	// way the paper's sea trials did (their af axis reaches 100%): a
	// moderately calmer sea and the wake of a hard-planing boat.
	sc.Hs = 0.3
	sc.WaveCoeff = 2.5
	return Fig11Config{
		Ms:             []float64{1, 1.5, 2, 2.5, 3},
		AFs:            []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		Trials:         20,
		PassesPerTrial: 5,
		Scenario:       sc,
	}
}

// Fig11 measures the successful detection ratio of one node as a function
// of the anomaly frequency, for several M.
//
// Operational definition (the paper gives the plot but not the success
// criterion; see DESIGN.md): each trial is a 400 s recording containing
// one ship pass at D = 25 m. The node's detection events (report windows
// whose af reaches the x-axis value, merged within 15 s) are classified
// against the known wake window; the successful detection ratio at af = x
// is the fraction of all detection events at that af that are genuine
// ship detections. Higher af and higher M suppress the (bursty,
// wave-group-driven) false alarms while the strong D = 25 m wake keeps
// reporting at high af — reproducing the rising curves of Fig. 11,
// including M = 1 staying lowest (its threshold lets wave groups through
// even at af = 100%).
func Fig11(cfg Fig11Config) ([]Fig11Point, error) {
	if cfg.Trials <= 0 {
		return nil, errf("Fig11: Trials must be positive, got %d", cfg.Trials)
	}
	if len(cfg.Ms) == 0 || len(cfg.AFs) == 0 {
		return nil, errf("Fig11: Ms and AFs must be non-empty")
	}
	if cfg.Scenario.ShipSpeed <= 0 {
		return nil, errf("Fig11 needs a ship in the scenario")
	}
	const dur = 400.0
	if cfg.PassesPerTrial <= 0 {
		cfg.PassesPerTrial = 1
	}
	// Spread the passes over the trial, leaving the warmup head quiet.
	arrivals := make([]float64, cfg.PassesPerTrial)
	for i := range arrivals {
		arrivals[i] = 90 + float64(i)*(dur-130)/float64(cfg.PassesPerTrial)
	}
	// wake/false event counts per (M, af) point across all trials.
	wakeN := make([][]int, len(cfg.Ms))
	falseN := make([][]int, len(cfg.Ms))
	for i := range wakeN {
		wakeN[i] = make([]int, len(cfg.AFs))
		falseN[i] = make([]int, len(cfg.AFs))
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		sc := cfg.Scenario
		sc.Seed = sc.Seed + int64(trial)*7919
		sens, model, _, err := sc.Build(arrivals...)
		if err != nil {
			return nil, err
		}
		z := sensor.ZSeries(sens.Record(model, 0, dur))
		for mi, m := range cfg.Ms {
			dcfg := detect.DefaultConfig()
			dcfg.M = m
			// Δt = 1 s: short enough that a wake crest fills whole windows
			// and af can reach 100% (see DESIGN.md on the af axis).
			dcfg.AnomalyWindow = 50
			dcfg.AnomalyHop = 25
			dcfg.AnomalyThreshold = 0.01 // windows filtered per-AF below
			det, err := detect.New(dcfg)
			if err != nil {
				return nil, err
			}
			windows := det.ProcessSeries(0, z)
			for ai, af := range cfg.AFs {
				w, f := countEvents(windows, af, arrivals)
				wakeN[mi][ai] += w
				falseN[mi][ai] += f
			}
		}
	}
	var out []Fig11Point
	for mi, m := range cfg.Ms {
		for ai, af := range cfg.AFs {
			p := Fig11Point{M: m, AF: af}
			if total := wakeN[mi][ai] + falseN[mi][ai]; total > 0 {
				p.Ratio = float64(wakeN[mi][ai]) / float64(total)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// countEvents classifies one trial's windows at the given af value into
// genuine wake detections (per pass) and false-alarm events (merged
// within 15 s).
func countEvents(windows []detect.WindowStat, afReq float64, arrivals []float64) (wake, falseEvents int) {
	const (
		wakeLo   = -5.0 // tolerance before the nominal front arrival
		wakeHi   = 25.0 // wake train plus spread
		eventGap = 15.0
	)
	sawWake := make([]bool, len(arrivals))
	lastFalse := math.Inf(-1)
	for _, ws := range windows {
		if ws.AnomalyFreq < afReq || math.IsNaN(ws.Onset) {
			continue
		}
		inWake := false
		for i, arr := range arrivals {
			if ws.Onset >= arr+wakeLo && ws.Onset <= arr+wakeHi {
				sawWake[i] = true
				inWake = true
				break
			}
		}
		if inWake {
			continue
		}
		// Merge consecutive out-of-wake windows into events.
		if ws.Onset-lastFalse > eventGap {
			falseEvents++
		}
		lastFalse = ws.Onset
	}
	for _, s := range sawWake {
		if s {
			wake++
		}
	}
	return wake, falseEvents
}
