package eval

import (
	"math"

	"github.com/sid-wsn/sid/internal/fault"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/wake"
	"github.com/sid-wsn/sid/internal/wsn"
)

// Resilience measures how the end-to-end detection pipeline degrades under
// radio loss and node failures, with and without the resilience layer
// (reliable per-hop transport + cluster-head failover). This is the
// experiment behind docs/RESILIENCE.md: the paper's evaluation assumes a
// healthy network; a harbor deployment gets storms, drained cells and
// drowned buoys instead.

// ResilienceConfig parametrizes the sweep.
type ResilienceConfig struct {
	// Grid is the deployment (6×6 at 25 m by default: big enough for the
	// four-node speed condition with margin).
	Grid geo.GridSpec
	// LossRates is the Bernoulli frame-loss sweep.
	LossRates []float64
	// FailFracs is the fraction of nodes crashed mid-collection (the sink
	// is never crashed — it is mains-powered and ashore).
	FailFracs []float64
	// Trials is the number of seeds per sweep point. The same seeds are
	// used for the resilient and fire-and-forget arms, so each comparison
	// is paired.
	Trials int
	// SpeedKn is the intruder speed in knots.
	SpeedKn float64
	// Seed drives everything.
	Seed int64
}

// DefaultResilienceConfig returns the sweep reported in RESILIENCE.md.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Grid:      geo.GridSpec{Rows: 6, Cols: 6, Spacing: 25},
		LossRates: []float64{0, 0.15, 0.30},
		FailFracs: []float64{0, 0.15},
		Trials:    3,
		SpeedKn:   10,
		Seed:      1,
	}
}

// ResiliencePoint is one cell of the sweep: a (loss rate, failure
// fraction, transport mode) triple aggregated over trials.
type ResiliencePoint struct {
	LossRate float64
	FailFrac float64
	// Resilient is true for the reliable-transport + failover arm, false
	// for the paper's fire-and-forget protocol.
	Resilient bool
	Trials    int
	// Detected counts trials where the sink received ≥ 1 confirmation.
	Detected int
	// SpeedAvail counts trials where a confirmation carried a speed
	// estimate (the four-node condition survived the failures).
	SpeedAvail int
	// Failovers and Retransmissions aggregate protocol activity.
	Failovers       int
	Retransmissions int
	// DetectionRatio and SpeedRatio are Detected/Trials and
	// SpeedAvail/Trials.
	DetectionRatio, SpeedRatio float64
}

// Resilience runs the sweep: every (loss, failure) point twice — resilient
// and fire-and-forget — over the same per-trial seeds.
func Resilience(cfg ResilienceConfig) ([]ResiliencePoint, error) {
	if len(cfg.LossRates) == 0 || len(cfg.FailFracs) == 0 || cfg.Trials <= 0 {
		return nil, errf("Resilience: loss rates, failure fractions and trials must be non-empty/positive")
	}
	if cfg.Grid.Rows == 0 {
		cfg.Grid = DefaultResilienceConfig().Grid
	}
	var out []ResiliencePoint
	for _, loss := range cfg.LossRates {
		for _, frac := range cfg.FailFracs {
			for _, resilient := range []bool{false, true} {
				pt := ResiliencePoint{LossRate: loss, FailFrac: frac, Resilient: resilient, Trials: cfg.Trials}
				for trial := 0; trial < cfg.Trials; trial++ {
					seed := cfg.Seed + int64(trial)*7919 + int64(loss*1000)*13 + int64(frac*1000)*31
					res, err := resilienceTrial(cfg, loss, frac, resilient, seed)
					if err != nil {
						return nil, err
					}
					if res.detected {
						pt.Detected++
					}
					if res.speed {
						pt.SpeedAvail++
					}
					pt.Failovers += res.failovers
					pt.Retransmissions += res.retrans
				}
				pt.DetectionRatio = float64(pt.Detected) / float64(pt.Trials)
				pt.SpeedRatio = float64(pt.SpeedAvail) / float64(pt.Trials)
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

type resilienceTrialResult struct {
	detected  bool
	speed     bool
	failovers int
	retrans   int
}

// resilienceTrial runs one full deployment: ship crossing at t = 150 s,
// the configured fraction of nodes crashing from t = 165 s (2 s apart,
// mid-collection, deterministic victims), the given Bernoulli loss rate.
func resilienceTrial(cfg ResilienceConfig, loss, frac float64, resilient bool, seed int64) (resilienceTrialResult, error) {
	rc := sid.DefaultConfig()
	rc.Grid = cfg.Grid
	rc.Seed = seed
	rc.Radio.LossProb = loss
	// The default radio's blind link-layer retries re-send whenever the
	// loss draw failed — sender-side knowledge a real fire-and-forget
	// radio cannot have. The sweep removes that simulation shortcut so
	// the two arms are physical: raw frames vs ACK-verified frames.
	rc.Radio.Retries = 0
	if resilient {
		rc.Radio.Reliable = wsn.DefaultReliableConfig()
		rc.Failover = sid.DefaultFailoverConfig()
	}
	if frac > 0 {
		rc.Faults = fault.CrashFraction(cfg.Grid.NumNodes(), frac, 165, 2, seed, int(sid.SinkNode))
	}
	rt, err := sid.NewRuntime(rc)
	if err != nil {
		return resilienceTrialResult{}, err
	}
	ship, err := resilienceShip(cfg, 150)
	if err != nil {
		return resilienceTrialResult{}, err
	}
	rt.AddShip(ship)
	if err := rt.Run(450); err != nil {
		return resilienceTrialResult{}, err
	}
	res := resilienceTrialResult{
		failovers: rt.Failovers(),
		retrans:   rt.Network().Stats().Retransmissions,
	}
	for _, sr := range rt.SinkReports() {
		res.detected = true
		if sr.HasSpeed {
			res.speed = true
		}
	}
	return res, nil
}

// resilienceShip crosses the grid perpendicular to its rows, wake front
// reaching the center around tArrive.
func resilienceShip(cfg ResilienceConfig, tArrive float64) (*wake.Ship, error) {
	center := cfg.Grid.Center()
	track := geo.NewLine(geo.Vec2{X: center.X + cfg.Grid.Spacing/2, Y: -200}, geo.Vec2{X: 0, Y: 1})
	ship, err := wake.NewShip(track, geo.Knots(cfg.SpeedKn), 12)
	if err != nil {
		return nil, err
	}
	ship.SetArrival(center, tArrive)
	return ship, nil
}

// ResilienceSummary condenses a sweep into the headline acceptance
// numbers: the resilient arm's worst detection-ratio drop from its
// lossless baseline, and the fire-and-forget arm's drop at the highest
// loss rate.
type ResilienceSummary struct {
	// ResilientBaseline and UnreliableBaseline are the lossless,
	// failure-free detection ratios per arm.
	ResilientBaseline, UnreliableBaseline float64
	// ResilientWorst and UnreliableWorst are each arm's lowest detection
	// ratio anywhere in the sweep.
	ResilientWorst, UnreliableWorst float64
}

// Summarize extracts the headline numbers from a sweep.
func Summarize(points []ResiliencePoint) ResilienceSummary {
	s := ResilienceSummary{ResilientWorst: math.Inf(1), UnreliableWorst: math.Inf(1)}
	for _, p := range points {
		if p.LossRate == 0 && p.FailFrac == 0 {
			if p.Resilient {
				s.ResilientBaseline = p.DetectionRatio
			} else {
				s.UnreliableBaseline = p.DetectionRatio
			}
		}
		if p.Resilient {
			s.ResilientWorst = math.Min(s.ResilientWorst, p.DetectionRatio)
		} else {
			s.UnreliableWorst = math.Min(s.UnreliableWorst, p.DetectionRatio)
		}
	}
	return s
}
