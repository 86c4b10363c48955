package sid

import (
	"fmt"

	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/parallel"
)

// FleetConfig shards many independent deployments — one per surveillance
// field — over the process's cores. Each deployment is a complete, isolated
// SID instance (own scheduler, sample source, network, collector); the
// fleet only fans their Run loops out and aggregates their metrics, which
// is the scaling shape of a monitoring service running many fields at once.
type FleetConfig struct {
	// Deployments configures each field. Per-deployment Workers is forced
	// to 1: the fleet owns the cores and parallelizes *across* deployments,
	// and runs are bit-identical for any Workers value, so this only moves
	// where the parallelism lives. A deployment with a nil Obs gets its own
	// private collector so per-field metrics stay attributable.
	Deployments []Config
	// Workers bounds the deployments running concurrently: 0 uses all
	// cores (GOMAXPROCS), 1 runs the fleet serially. Results are
	// bit-identical for any value — deployments share no state.
	Workers int
}

// Fleet is a set of independent SID deployments run as one unit.
type Fleet struct {
	workers int
	rts     []*Runtime
}

// NewFleet validates and constructs every deployment. Constructing eagerly
// (and serially) keeps configuration errors at build time and attributable
// to their deployment index.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Deployments) == 0 {
		return nil, fmt.Errorf("sid: fleet needs at least one deployment")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sid: fleet Workers must be non-negative, got %d", cfg.Workers)
	}
	f := &Fleet{workers: cfg.Workers}
	for i, dc := range cfg.Deployments {
		dc.Workers = 1
		if dc.Obs == nil {
			dc.Obs = obs.New()
		}
		rt, err := NewRuntime(dc)
		if err != nil {
			return nil, fmt.Errorf("sid: fleet deployment %d: %w", i, err)
		}
		f.rts = append(f.rts, rt)
	}
	return f, nil
}

// Size returns the number of deployments.
func (f *Fleet) Size() int { return len(f.rts) }

// Runtime returns deployment i (for per-field setup — ships, faults — and
// per-field results).
func (f *Fleet) Runtime(i int) *Runtime { return f.rts[i] }

// Run advances every deployment by dur seconds of simulated time, fanning
// the fields across Workers goroutines. Each field's outcome is identical
// to running it alone: deployments share no mutable state, and the journal
// (if any) of each field's collector stays a serial, per-field stream —
// aggregation happens at the metrics level (Snapshot), never by
// interleaving journals, which would destroy their byte-determinism.
//
// The first failing deployment's error (lowest index) is returned;
// remaining deployments still complete their runs.
func (f *Fleet) Run(dur float64) error {
	errs := make([]error, len(f.rts))
	parallel.ForEach(len(f.rts), f.workers, func(i int) {
		errs[i] = f.rts[i].Run(dur)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sid: fleet deployment %d: %w", i, err)
		}
	}
	return nil
}

// Snapshot merges every deployment's registry into one fleet-level view
// (counters sum, gauges take the max, histograms merge bucket-wise). The
// result is deterministic: per-field registries are simulation-determined
// and the merge is order-independent.
func (f *Fleet) Snapshot() obs.Snapshot {
	snaps := make([]obs.Snapshot, len(f.rts))
	for i, rt := range f.rts {
		snaps[i] = rt.Observability().Registry().Snapshot()
	}
	return obs.MergeSnapshots(snaps...)
}
