// Package obs is the SID runtime's zero-dependency observability layer:
// a typed metrics registry (counters, gauges, fixed-bucket histograms),
// a structured event journal keyed by simulation time, and span-style
// wall-clock stage profiling.
//
// The three concerns are deliberately separated by determinism class:
//
//   - The registry holds monotonic counters and point-in-time gauges whose
//     values are functions of the simulation alone — identical for every
//     run of the same seed, whatever the worker count.
//   - The journal records what happened and when in *simulation* time.
//     Events are emitted only from the scheduler's serial phases, so a
//     journal serialized to JSONL is byte-identical across worker counts.
//   - The profiler measures wall-clock durations, which are inherently
//     nondeterministic; they live strictly outside the journal so that
//     enabling profiling can never perturb a pinned trace.
//
// A Collector bundles the three, plus the detection Tracer, which folds the
// same event stream the journal records into per-detection traces. The
// zero-cost contract: a runtime given no collector creates a
// registry-only one (atomic increments, no allocation), event emission
// sites guard on Journaling() before building any payload, and profiling
// sites guard on a nil Profiler — so the disabled paths add no
// allocations to the hot loops.
package obs

// Collector bundles the observability sinks a runtime writes to. Configure
// it (journal, profiler) before handing it to a runtime: the runtime may
// cache the profiler at construction.
type Collector struct {
	registry *Registry
	journal  *Journal
	profiler *Profiler
	tracer   *Tracer
}

// New returns a collector with a fresh registry and no journal or
// profiler — the always-on, allocation-free configuration.
func New() *Collector {
	return &Collector{registry: NewRegistry()}
}

// Registry returns the metrics registry (nil only for a nil collector).
func (c *Collector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.registry
}

// SetJournal attaches (or, with nil, detaches) the event journal.
func (c *Collector) SetJournal(j *Journal) { c.journal = j }

// Journal returns the attached journal, or nil.
func (c *Collector) Journal() *Journal {
	if c == nil {
		return nil
	}
	return c.journal
}

// SetProfiler attaches (or, with nil, detaches) the stage profiler.
// Attach before constructing the runtime that should use it.
func (c *Collector) SetProfiler(p *Profiler) { c.profiler = p }

// Profiler returns the attached profiler, or nil.
func (c *Collector) Profiler() *Profiler {
	if c == nil {
		return nil
	}
	return c.profiler
}

// SetTracer attaches (or, with nil, detaches) the detection trace
// assembler, which folds every emitted event. Attach before the run
// starts: traces reference wake-genesis marks recorded at ship-add time.
func (c *Collector) SetTracer(t *Tracer) { c.tracer = t }

// Tracer returns the attached tracer, or nil.
func (c *Collector) Tracer() *Tracer {
	if c == nil {
		return nil
	}
	return c.tracer
}

// Journaling reports whether emitted events have a consumer — a journal,
// a tracer, or both. Emission sites must guard on it before building a
// payload so the disabled path allocates nothing.
func (c *Collector) Journaling() bool { return c != nil && (c.journal != nil || c.tracer != nil) }

// Emit records one event at simulation time t: the journal appends it and
// the tracer folds it into its detection traces, whichever are attached.
// It is a no-op without either, but callers on hot paths should still
// guard with Journaling() — constructing data already costs an allocation.
func (c *Collector) Emit(t float64, kind string, data any) {
	if c == nil {
		return
	}
	if c.journal != nil {
		c.journal.Emit(t, kind, data)
	}
	if c.tracer != nil {
		c.tracer.fold(t, kind, data)
	}
}
