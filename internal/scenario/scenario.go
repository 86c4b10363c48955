// Package scenario is a deterministic multi-vessel trial engine on top of
// the SID runtime. A trial is a declarative Spec — grid, sea state, N ships
// with waypoint trajectories (piecewise speeds, acceleration segments,
// staggered entries), radio impairments, and a node-failure plan — compiled
// onto the discrete-event scheduler. Wake fields of concurrent vessels
// superpose linearly through the sensor model, and each vessel's kinematic
// ground truth is kept alongside so the run's detections and speed/heading
// estimates are attributed and scored per ship (Result / ShipResult).
//
// The package also carries the golden-trace regression corpus: Corpus()
// enumerates canonical scenarios whose per-node report streams and final
// metrics are committed under testdata/golden and checked by go test with
// tolerance bands (see golden.go and docs/SCENARIOS.md).
package scenario

import (
	"fmt"

	"github.com/sid-wsn/sid/internal/adversary"
	"github.com/sid-wsn/sid/internal/fault"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/wake"
	"github.com/sid-wsn/sid/internal/wsn"
)

// WaypointSpec is one trajectory vertex: a position in grid coordinates
// (meters; the grid origin is node (0,0), rows advance along +Y) and the
// vessel speed there in knots. Speeds between vertices ramp linearly in
// time (uniform acceleration per leg).
type WaypointSpec struct {
	X, Y    float64
	SpeedKn float64
}

// shipLengthM is every vessel's waterline hull length: the paper's small
// fishing boat.
const shipLengthM = 12

// ShipSpec is one vessel of a trial.
type ShipSpec struct {
	// Name labels the vessel in results and golden files.
	Name string
	// EnterAt is the simulation time the vessel is at its first waypoint.
	EnterAt float64
	// Waypoints is the trajectory (at least two points).
	Waypoints []WaypointSpec
}

// Spec declares one trial. The zero value of every field falls back to the
// sid.DefaultConfig value, so a Spec only states what a scenario is about.
type Spec struct {
	// Name identifies the scenario (and its golden file).
	Name string
	// Rows, Cols, SpacingM shape the buoy grid (default 4×5 at 25 m).
	Rows, Cols int
	SpacingM   float64
	// Hs, Tp parametrize the ambient sea (default 0.25 m, 4 s).
	Hs, Tp float64
	// Duration is the simulated run length in seconds. Required.
	Duration float64
	// Seed drives every random stream of the trial.
	Seed int64
	// Workers bounds the synthesis goroutines (results are bit-identical
	// for any value; see sid.Config.Workers).
	Workers int
	// PacketLoss overrides the radio frame-loss probability when positive.
	PacketLoss float64
	// Reliable enables the per-hop ACK/ARQ transport.
	Reliable bool
	// Failover enables cluster-head failover.
	Failover bool
	// Spectral switches the synthetic field to FFT-based spectral block
	// synthesis (source.SynthSpectral); false keeps the exact phasor
	// reference path. Golden traces are recorded on the phasor path; the
	// spectral path matches it within one ADC count per sample (see
	// docs/SYNTHESIS.md). Ignored on replay runs.
	Spectral bool
	// Ships are the intruding vessels (may be empty: a quiet-sea trial).
	Ships []ShipSpec
	// Faults is a deterministic fault plan applied at construction.
	Faults fault.Plan
	// Adversary is a deterministic attack plan (byzantine report
	// injection, smooth clock spoofing) applied at construction.
	Adversary adversary.Plan
	// Defense enables the head-side defense layer with its default
	// settings (freshness gating, trimmed evaluation, suspicion and
	// quarantine, robust speed fit).
	Defense bool
}

// compile lowers the spec onto a sid.Config.
func (s Spec) compile() (sid.Config, error) {
	if s.Name == "" {
		return sid.Config{}, fmt.Errorf("scenario: Name is required")
	}
	if s.Duration <= 0 {
		return sid.Config{}, fmt.Errorf("scenario %q: Duration must be positive, got %g", s.Name, s.Duration)
	}
	cfg := sid.DefaultConfig()
	if s.Rows > 0 {
		cfg.Grid.Rows = s.Rows
	}
	if s.Cols > 0 {
		cfg.Grid.Cols = s.Cols
	}
	if s.SpacingM > 0 {
		cfg.Grid.Spacing = s.SpacingM
	}
	if s.Hs > 0 {
		cfg.Hs = s.Hs
	}
	if s.Tp > 0 {
		cfg.Tp = s.Tp
	}
	if s.PacketLoss > 0 {
		cfg.Radio.LossProb = s.PacketLoss
	}
	if s.Reliable {
		cfg.Radio.Reliable = wsn.DefaultReliableConfig()
	}
	if s.Failover {
		cfg.Failover = sid.DefaultFailoverConfig()
	}
	cfg.Faults = s.Faults
	cfg.Adversary = s.Adversary
	if s.Defense {
		cfg.Defense = sid.DefaultDefenseConfig()
	}
	cfg.Workers = s.Workers
	if s.Spectral {
		cfg.Synthesis = source.SynthSpectral
	}
	cfg.Seed = s.Seed
	return cfg, nil
}

// maneuvers builds the per-ship kinematic models.
func (s Spec) maneuvers() ([]*wake.Maneuver, error) {
	out := make([]*wake.Maneuver, 0, len(s.Ships))
	for i, sh := range s.Ships {
		wps := make([]wake.Waypoint, len(sh.Waypoints))
		for j, wp := range sh.Waypoints {
			wps[j] = wake.Waypoint{
				Pos:   geo.Vec2{X: wp.X, Y: wp.Y},
				Speed: geo.Knots(wp.SpeedKn),
			}
		}
		m, err := wake.NewManeuver(sh.EnterAt, shipLengthM, wps)
		if err != nil {
			return nil, fmt.Errorf("scenario %q ship %d (%s): %w", s.Name, i, sh.Name, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// Run executes the trial and scores it per vessel. Construction failures
// (bad spec, bad trajectory, bad fault plan) are returned as errors, never
// absorbed into the result.
func Run(spec Spec) (*Result, error) {
	return RunWithCollector(spec, nil)
}

// RunWithCollector is Run with an observability collector attached to the
// trial's runtime: protocol counters land in its registry, and when a
// journal is attached every pipeline event is recorded against simulation
// time. col may be nil (plain Run). Attaching a collector never changes the
// trial's outcome — the journal is written from the scheduler's serial
// phases only, so it is also byte-identical across Workers values.
func RunWithCollector(spec Spec, col *obs.Collector) (*Result, error) {
	return runWith(spec, col, nil, nil)
}

// Record runs the trial while teeing every node's sample stream into a
// SIDTRACE recording. The run itself is unperturbed — the returned Result
// is bit-identical to RunWithCollector at the same spec — and the
// recording replays through Replay (in memory via Recording.Source, or
// after a Save/OpenTraceDir disk round-trip).
func Record(spec Spec, col *obs.Collector) (*Result, *source.Recording, error) {
	rec := &source.Recording{}
	res, err := runWith(spec, col, nil, rec)
	if err != nil {
		return nil, nil, err
	}
	if err := rec.Err(); err != nil {
		return nil, nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	return res, rec, nil
}

// Replay runs the trial's detection stack against a replay source instead
// of the synthetic field: same spec (protocol parameters, radio, seed —
// which drives the radio/clock streams the replay still needs), but the
// samples come from src and no wake sources are synthesized. Scoring still
// uses the spec's analytic ship trajectories as ground truth, so a replay
// of a recorded run scores identically to the original.
func Replay(spec Spec, src source.Source, col *obs.Collector) (*Result, error) {
	return runWith(spec, col, src, nil)
}

// runWith compiles and executes one trial: src overrides the synthetic
// field when non-nil (replay), rec tees the sample stream when non-nil
// (record).
func runWith(spec Spec, col *obs.Collector, src source.Source, rec *source.Recording) (*Result, error) {
	cfg, err := spec.compile()
	if err != nil {
		return nil, err
	}
	cfg.Obs = col
	cfg.Source = src
	cfg.RecordTo = rec
	ships, err := spec.maneuvers()
	if err != nil {
		return nil, err
	}
	rt, err := sid.NewRuntime(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	if src == nil {
		// Synthetic run: superpose the vessels' wake fields. A replay's
		// samples already contain the recorded wakes.
		for _, m := range ships {
			rt.AddSource(wake.ManeuverField{M: m})
		}
	}
	if err := rt.Run(spec.Duration); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	return score(spec, cfg, rt, ships), nil
}
