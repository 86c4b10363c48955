// Package sid is the public facade of the SID reproduction: ship intrusion
// detection with wireless sensor networks, after Luo et al., ICDCS 2011
// (DOI 10.1109/ICDCS.2011.21).
//
// SID detects unauthorized vessels from the V-shaped Kelvin wake they drag
// across a field of accelerometer buoys: every node runs an
// environment-adaptive threshold detector on its z-axis acceleration; a
// detecting node forms a temporary cluster within six radio hops; the
// cluster head confirms the intrusion by checking the spatial/temporal
// correlations the sweeping wake imposes on report times and energies, and
// estimates the intruder's speed and heading from four detection
// timestamps using the fixed 19°28′ Kelvin cusp angle.
//
// The facade wraps the full simulated deployment (ocean, wakes, buoys,
// radios, clocks, batteries, and the distributed SID protocol on a
// discrete-event scheduler). Quick start:
//
//	dep, err := sid.NewDeployment(sid.DefaultDeployment())
//	if err != nil { ... }
//	dep.AddIntruder(sid.Intruder{SpeedKnots: 10, CrossAt: 150})
//	if err := dep.Run(400); err != nil { ... }
//	for _, det := range dep.Detections() {
//	    fmt.Printf("intrusion C=%.2f speed=%.1f kn\n", det.C, det.SpeedKnots)
//	}
//
// The packages under internal/ implement the substrates (DSP, ocean and
// wake physics, sensing, the WSN runtime, the detection pipeline, and the
// evaluation harness reproducing every table and figure of the paper);
// see DESIGN.md for the inventory.
package sid

import (
	"fmt"

	"github.com/sid-wsn/sid/internal/adversary"
	"github.com/sid-wsn/sid/internal/fault"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/wake"
	"github.com/sid-wsn/sid/internal/wsn"
)

// Deployment is a running SID surveillance field.
type Deployment struct {
	rt  *sid.Runtime
	cfg Config
}

// Config configures a deployment. The zero value is not valid; start from
// DefaultDeployment.
type Config struct {
	// Rows, Cols and SpacingM describe the buoy grid (the paper deploys
	// manually in a grid at D = 25 m).
	Rows, Cols int
	SpacingM   float64
	// SignificantWaveHeightM and PeakPeriodS describe the ambient sea.
	SignificantWaveHeightM float64
	PeakPeriodS            float64
	// ThresholdM is the node-level threshold multiplier M (1–3).
	ThresholdM float64
	// AnomalyThreshold is the af fraction required for a node report.
	AnomalyThreshold float64
	// CThreshold is the cluster-level correlation threshold (0.4).
	CThreshold float64
	// PacketLoss is the radio frame loss probability.
	PacketLoss float64
	// BatteryJ equips nodes with finite batteries when positive.
	BatteryJ float64
	// Seed makes the whole deployment reproducible.
	Seed int64
	// Workers bounds the goroutines synthesizing per-node sensor blocks
	// and running them through the nodes' detectors: 0 uses GOMAXPROCS,
	// 1 forces serial execution. Results are bit-identical for every
	// value — same Seed, same Detections — so the knob trades only
	// wall-clock time, never reproducibility.
	Workers int
	// SpectralSynthesis switches sample production from the exact
	// per-component phasor sum to FFT-based spectral block synthesis —
	// typically >5× faster and equivalent within one ADC count per sample
	// (see docs/SYNTHESIS.md). Off by default: the phasor path remains the
	// bit-exact reference for goldens and recordings.
	SpectralSynthesis bool
	// ReliableTransport layers a per-hop ACK/retransmission protocol
	// (deterministic exponential backoff, bounded retries) under every
	// unicast and multi-hop send. Off by default: fire-and-forget runs
	// stay bit-identical to earlier releases.
	ReliableTransport bool
	// Failover makes temporary cluster heads lease their role via
	// heartbeats; when a head dies mid-collection the members elect the
	// lowest alive ID as replacement and re-send their reports. Off by
	// default.
	Failover bool
	// Faults injects a deterministic failure schedule (node crashes,
	// battery depletion, clock steps, burst loss). The zero value injects
	// nothing.
	Faults FaultPlan
	// Adversary injects deterministic byzantine behavior (fabricated or
	// replayed reports, smoothly spoofed clocks). The zero value injects
	// nothing.
	Adversary AdversaryPlan
	// Defense enables the head-side byzantine defenses (report freshness
	// gating, trimmed robust evaluation, per-node suspicion with
	// quarantine, leave-one-out speed fitting). Off by default: undefended
	// runs stay bit-identical to earlier releases.
	Defense bool
}

// AdversaryPlan is a declarative, deterministic attack schedule. Identical
// plans on identical seeds reproduce identical attacks.
type AdversaryPlan struct {
	// Byzantine nodes inject fabricated or replayed reports into the
	// protocol's genuine collection path.
	Byzantine []ByzantineNode
	// ClockSpoofs smoothly skew node clocks (no step discontinuity), the
	// stealthy poisoning of the four-timestamp speed fit.
	ClockSpoofs []ClockSpoof
}

// ByzantineNode schedules one compromised node's injection campaign:
// Count reports starting at Start seconds, Period seconds apart.
type ByzantineNode struct {
	Node int
	// Replay re-sends the node's own last genuine report verbatim;
	// otherwise the node fabricates plausible fresh reports with energies
	// around EnergyBase.
	Replay     bool
	Start      float64
	Period     float64
	Count      int
	EnergyBase float64
}

// ClockSpoof skews a node's clock by SkewPPM parts-per-million starting at
// At seconds, keeping local time continuous — invisible to step detectors,
// poisonous to timestamp arithmetic.
type ClockSpoof struct {
	Node    int
	At      float64
	SkewPPM float64
}

// internalAdversary converts the public attack plan to the internal one.
func (p AdversaryPlan) internalAdversary() adversary.Plan {
	return adversary.Plan{
		Byzantine: lower(p.Byzantine, func(b ByzantineNode) adversary.ByzantineNode {
			behavior := adversary.Fabricate
			if b.Replay {
				behavior = adversary.Replay
			}
			return adversary.ByzantineNode{
				Node: b.Node, Behavior: behavior,
				Start: b.Start, Period: b.Period, Count: b.Count,
				EnergyBase: b.EnergyBase,
			}
		}),
		ClockSpoofs: lower(p.ClockSpoofs, func(s ClockSpoof) adversary.ClockSpoof {
			return adversary.ClockSpoof{Node: s.Node, At: s.At, SkewPPM: s.SkewPPM}
		}),
	}
}

// lower converts every element of in with f into one exactly sized slice
// (nil for an empty in), so lowering a long list allocates once, before
// validation refuses it.
func lower[S, T any](in []S, f func(S) T) []T {
	if len(in) == 0 {
		return nil
	}
	out := make([]T, len(in))
	for i, v := range in {
		out[i] = f(v)
	}
	return out
}

// FaultPlan is a declarative, deterministic failure schedule. Identical
// plans on identical seeds reproduce identical runs.
type FaultPlan struct {
	// Crashes schedules node failures (and optional revivals).
	Crashes []NodeCrash
	// Depletions empties node batteries at scheduled times.
	Depletions []BatteryDepletion
	// ClockSteps knocks node clocks by fixed offsets.
	ClockSteps []ClockStep
	// Burst replaces the Bernoulli radio loss with a Gilbert–Elliott
	// burst-loss channel when non-nil.
	Burst *BurstLoss
}

// NodeCrash takes a node down at At seconds; ReviveAt > At restores it.
type NodeCrash struct {
	Node     int
	At       float64
	ReviveAt float64
}

// BatteryDepletion empties a node's battery at At seconds (nodes without a
// battery are crashed permanently instead).
type BatteryDepletion struct {
	Node int
	At   float64
}

// ClockStep adds OffsetS to a node's clock at At seconds.
type ClockStep struct {
	Node    int
	At      float64
	OffsetS float64
}

// BurstLoss is a two-state Gilbert–Elliott burst-loss channel: good and
// bad states with mean sojourn times MeanGoodS/MeanBadS and per-frame loss
// probabilities LossGood/LossBad.
type BurstLoss struct {
	MeanGoodS, MeanBadS float64
	LossGood, LossBad   float64
}

// internalPlan converts the public fault plan to the internal one.
func (p FaultPlan) internalPlan() fault.Plan {
	out := fault.Plan{
		Crashes: lower(p.Crashes, func(c NodeCrash) fault.Crash {
			return fault.Crash{Node: c.Node, At: c.At, ReviveAt: c.ReviveAt}
		}),
		Depletions: lower(p.Depletions, func(d BatteryDepletion) fault.Depletion {
			return fault.Depletion{Node: d.Node, At: d.At}
		}),
		ClockSteps: lower(p.ClockSteps, func(s ClockStep) fault.ClockStep {
			return fault.ClockStep{Node: s.Node, At: s.At, Offset: s.OffsetS}
		}),
	}
	if p.Burst != nil {
		out.Burst = &fault.BurstLoss{
			MeanGoodS: p.Burst.MeanGoodS, MeanBadS: p.Burst.MeanBadS,
			LossGood: p.Burst.LossGood, LossBad: p.Burst.LossBad,
		}
	}
	return out
}

// DefaultDeployment is a 5×5 grid at 25 m on a slight sea with the paper's
// algorithm parameters.
func DefaultDeployment() Config {
	return Config{
		Rows: 5, Cols: 5, SpacingM: 25,
		SignificantWaveHeightM: 0.3,
		PeakPeriodS:            6,
		ThresholdM:             2,
		AnomalyThreshold:       0.6,
		CThreshold:             0.4,
		PacketLoss:             0.05,
	}
}

// runtimeConfig lowers the public Config onto the internal one. It is the
// single conversion path: NewDeployment and Validate both go through it,
// so the internal validator is the one source of truth for what a
// deployment accepts.
func (cfg Config) runtimeConfig() sid.Config {
	rc := sid.DefaultConfig()
	rc.Grid = geo.GridSpec{Rows: cfg.Rows, Cols: cfg.Cols, Spacing: cfg.SpacingM}
	rc.Hs = cfg.SignificantWaveHeightM
	rc.Tp = cfg.PeakPeriodS
	rc.Detect.M = cfg.ThresholdM
	rc.Detect.AnomalyThreshold = cfg.AnomalyThreshold
	rc.Cluster.CThreshold = cfg.CThreshold
	rc.Radio.LossProb = cfg.PacketLoss
	rc.BatteryJ = cfg.BatteryJ
	rc.Seed = cfg.Seed
	rc.Workers = cfg.Workers
	if cfg.SpectralSynthesis {
		rc.Synthesis = source.SynthSpectral
	}
	if cfg.ReliableTransport {
		rc.Radio.Reliable = wsn.DefaultReliableConfig()
	}
	if cfg.Failover {
		rc.Failover = sid.DefaultFailoverConfig()
	}
	rc.Faults = cfg.Faults.internalPlan()
	rc.Adversary = cfg.Adversary.internalAdversary()
	if cfg.Defense {
		rc.Defense = sid.DefaultDefenseConfig()
	}
	return rc
}

// Validate reports whether the configuration describes a buildable
// deployment, by delegating to the internal runtime validator (the same
// check NewDeployment performs).
func (cfg Config) Validate() error {
	return cfg.runtimeConfig().Validate()
}

// RuntimeConfig lowers the public configuration onto the internal runtime
// configuration — the same single conversion path NewDeployment and
// Validate use. It exists for in-module layers: the detection server
// (internal/serve) compiles tenant specs through it so a served deployment
// is exactly the deployment the facade would build. Code outside this
// module cannot name the returned type and should use NewDeployment.
func (cfg Config) RuntimeConfig() sid.Config { return cfg.runtimeConfig() }

// NewDeployment builds the simulated field.
func NewDeployment(cfg Config) (*Deployment, error) {
	rt, err := sid.NewRuntime(cfg.runtimeConfig())
	if err != nil {
		return nil, err
	}
	return &Deployment{rt: rt, cfg: cfg}, nil
}

// Intruder describes a vessel crossing the surveillance field.
type Intruder struct {
	// SpeedKnots is the vessel speed.
	SpeedKnots float64
	// HeadingDeg is the sailing direction in degrees from the grid's
	// row (east) axis; 90 crosses the grid perpendicular to its rows.
	HeadingDeg float64
	// OffsetM shifts the sailing line sideways from the grid center.
	OffsetM float64
	// CrossAt is the simulation time (seconds) at which the wake front
	// reaches the grid center.
	CrossAt float64
	// LengthM is the waterline length (default 12 m).
	LengthM float64
}

// AddIntruder schedules a vessel crossing. Call before or between Run
// segments.
func (d *Deployment) AddIntruder(in Intruder) error {
	if in.SpeedKnots <= 0 {
		return fmt.Errorf("sid: intruder speed must be positive, got %g", in.SpeedKnots)
	}
	grid := geo.GridSpec{Rows: d.cfg.Rows, Cols: d.cfg.Cols, Spacing: d.cfg.SpacingM}
	ship, err := wake.CrossingShip(grid.Center(),
		in.SpeedKnots, in.HeadingDeg, in.OffsetM, in.CrossAt, in.LengthM)
	if err != nil {
		return err
	}
	d.rt.AddShip(ship)
	return nil
}

// Run advances the deployment by dur seconds of simulated time.
func (d *Deployment) Run(dur float64) error { return d.rt.Run(dur) }

// Detection is one confirmed intrusion as received at the sink.
type Detection struct {
	// Time is the sink-local arrival time of the confirmation.
	Time float64
	// C is the spatial/temporal correlation coefficient (eq. 13).
	C float64
	// Reports is the number of node reports behind the confirmation.
	Reports int
	// MeanOnset is the mean node onset time of the event.
	MeanOnset float64
	// HasSpeed reports whether the four-node speed condition was met.
	HasSpeed bool
	// SpeedKnots and HeadingDeg estimate the intruder's motion (if
	// HasSpeed).
	SpeedKnots float64
	HeadingDeg float64
}

// Detections returns the confirmed intrusions so far.
func (d *Deployment) Detections() []Detection {
	var out []Detection
	for _, r := range d.rt.SinkReports() {
		out = append(out, DetectionOf(r))
	}
	return out
}

// DetectionOf converts one sink report into a Detection, with speed and
// heading in knots and degrees. It is the one conversion: Detections and
// the detection server (internal/serve) both use it, so a served detection
// marshals to the same bytes as the library's. Like RuntimeConfig, it
// takes a type code outside this module cannot name.
func DetectionOf(r sid.SinkReport) Detection {
	det := Detection{
		Time:      r.Time,
		C:         r.C,
		Reports:   r.Reports,
		MeanOnset: r.MeanOnset,
		HasSpeed:  r.HasSpeed,
	}
	if r.HasSpeed {
		det.SpeedKnots = geo.ToKnots(r.Speed)
		det.HeadingDeg = geo.ToDeg(r.Heading)
	}
	return det
}

// Stats summarizes protocol activity.
type Stats struct {
	ClustersFormed    int
	ClustersCancelled int
	FramesSent        int
	FramesLost        int
	// Retransmissions, Acks and ReliableDropped describe the reliable
	// transport (zero when ReliableTransport is off): retransmitted data
	// frames, acknowledgment frames, and hops abandoned after the
	// retransmission bound.
	Retransmissions int
	Acks            int
	ReliableDropped int
	// Failovers counts cluster-head takeovers (zero when Failover is off).
	Failovers int
	// SendErrors counts synchronous routing failures (no path at send
	// time) that the protocol observed and counted instead of discarding.
	SendErrors int
}

// Stats returns protocol counters.
func (d *Deployment) Stats() Stats {
	ns := d.rt.Network().Stats()
	return Stats{
		ClustersFormed:    d.rt.ClustersFormed(),
		ClustersCancelled: d.rt.Cancelled(),
		FramesSent:        ns.Sent,
		FramesLost:        ns.Lost,
		Retransmissions:   ns.Retransmissions,
		Acks:              ns.Acks,
		ReliableDropped:   ns.ReliableDropped,
		Failovers:         d.rt.Failovers(),
		SendErrors:        d.rt.SendErrors(),
	}
}

// Runtime exposes the underlying runtime for advanced use (fault
// injection, energy accounting, direct network access).
func (d *Deployment) Runtime() *sid.Runtime { return d.rt }
