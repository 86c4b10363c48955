package source

import (
	"fmt"
	"os"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/trace"
)

// Recording tees the sample stream flowing through a pipeline into per-node
// SIDTRACE recordings. Attach one via the runtime's RecordTo config; the
// pipeline calls Init once and then Append for every consumed block, in the
// serial phase of each batch, so recording never perturbs the run.
//
// Replay by index requires contiguous streams: a node that skips batches
// (duty-cycled coarse mode) produces a gap, which Append detects and
// reports from Err, Save and Source.
type Recording struct {
	rate  float64
	scale float64
	pos   []geo.Vec2
	seed  int64
	nodes []window // one per node, never drained
	err   error
}

// Init is called by the pipeline before the first batch. It resets the
// recording to the deployment's geometry and stream parameters.
func (r *Recording) Init(rate, scale float64, positions []geo.Vec2, seed int64) {
	r.rate, r.scale, r.seed = rate, scale, seed
	r.pos = append([]geo.Vec2(nil), positions...)
	r.nodes = make([]window, len(positions))
	r.err = nil
}

// Append records one consumed block for node, whose first sample has global
// index idx. Blocks must be contiguous per node; the first gap marks the
// recording broken (see Err).
func (r *Recording) Append(node, idx int, block []sensor.Sample) {
	if err := r.nodes[node].add(idx, block); err != nil && r.err == nil {
		r.err = fmt.Errorf("source: node %d %w — "+
			"duty-cycled nodes that skip batches cannot be recorded for replay", node, err)
	}
}

// Err reports whether the recorded streams are replayable (nil) or broken
// by a gap.
func (r *Recording) Err() error { return r.err }

// Source returns an in-memory replay source over the recorded streams.
func (r *Recording) Source() (*Trace, error) {
	if r.err != nil {
		return nil, r.err
	}
	data := make([][]sensor.Sample, len(r.nodes))
	for i := range r.nodes {
		data[i] = r.nodes[i].pending
	}
	t, err := TraceFromSamples(r.rate, r.scale, data)
	if err != nil {
		return nil, err
	}
	t.pos = append([]geo.Vec2(nil), r.pos...)
	t.seed = r.seed
	return t, nil
}

// Save writes one SIDTRACE file per node (node_000.sidtrc, …) into dir,
// creating it if needed. The result round-trips through OpenTraceDir.
func (r *Recording) Save(dir string) error {
	if r.err != nil {
		return r.err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for node := range r.nodes {
		samples := r.nodes[node].pending
		h := trace.Header{
			SampleRate: r.rate,
			CountsPerG: r.scale,
			Pos:        r.pos[node],
			Seed:       r.seed,
		}
		if len(samples) > 0 {
			h.StartTime = samples[0].T
		}
		f, err := os.Create(TraceFile(dir, node))
		if err != nil {
			return err
		}
		if err := trace.Write(f, h, samples); err != nil {
			f.Close()
			return fmt.Errorf("source: node %d: %w", node, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
