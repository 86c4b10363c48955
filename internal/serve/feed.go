package serve

import (
	"bytes"
	"fmt"

	sidapi "github.com/sid-wsn/sid"
	"github.com/sid-wsn/sid/internal/obs"
	isid "github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/wake"
)

// FeedSpec describes a recorded feed: a facade-configured deployment, the
// intruders crossing it, and how to slice the resulting recording into
// ingest chunks.
type FeedSpec struct {
	// Spec is the deployment, exactly as a tenant would be created.
	Spec sidapi.Config
	// Intruders cross the field (facade geometry — wake.CrossingShip).
	Intruders []sidapi.Intruder
	// Duration is the simulated length of the feed in seconds.
	Duration float64
	// ChunkS is the chunk duration; must divide Duration and be a
	// multiple of the deployment's sensing batch.
	ChunkS float64
	// Journal captures the run's JSONL journal for wire-determinism
	// comparisons.
	Journal bool
	// TraceLabel, when non-empty, attaches a detection tracer under this
	// label (use the tenant ID the feed will be replayed into) and captures
	// the run's deterministic trace serialization for wire comparisons.
	TraceLabel string
}

// Feed is a replayable ingest load: the encoded bundle chunks of a
// recorded run plus the run's own results, which are exactly what a
// tenant fed these chunks must reproduce (the record→replay equivalence
// contract, extended to the wire).
type Feed struct {
	// Chunks are EncodeBundle bodies for POST /v1/tenants/{id}/chunks,
	// in ingest order.
	Chunks [][]byte
	// Detections are the recorded run's confirmed intrusions — identical
	// to what the facade's Deployment.Detections returns for this spec.
	Detections []sidapi.Detection
	// Journal is the recorded run's JSONL journal (nil unless requested).
	// A served tenant with journaling on must forward these exact lines.
	Journal []byte
	// Genesis holds the wake-genesis marks of the recorded intruders (one
	// per intruder, in order) — pass them in the tenant's CreateRequest so
	// the served traces link to the same causal roots.
	Genesis []obs.GenesisMark
	// Trace is the recorded run's deterministic trace serialization (nil
	// unless TraceLabel was set). A served tenant created with the same
	// label and genesis marks must serve these exact bytes.
	Trace []byte
}

// BuildFeed runs the deployment once in process with a recording attached
// and returns the recording sliced into wire chunks, alongside the run's
// detections and (optionally) journal. The benchmark's serve workload and
// the serve smoke use it to manufacture tenant traffic; the integration
// tests use it as the in-process reference the served results must match
// byte for byte.
func BuildFeed(fs FeedSpec) (*Feed, error) {
	if fs.Duration <= 0 || fs.ChunkS <= 0 {
		return nil, fmt.Errorf("serve: feed duration and chunk must be positive, got %g, %g", fs.Duration, fs.ChunkS)
	}
	rc := fs.Spec.RuntimeConfig()
	rec := &source.Recording{}
	rc.RecordTo = rec
	var buf bytes.Buffer
	var tr *obs.Tracer
	if fs.Journal || fs.TraceLabel != "" {
		col := obs.New()
		if fs.Journal {
			j := obs.NewJournal(0)
			j.SetSink(&buf)
			col.SetJournal(j)
		}
		if fs.TraceLabel != "" {
			tr = obs.NewTracer(fs.TraceLabel)
			col.SetTracer(tr)
		}
		rc.Obs = col
	}
	rt, err := isid.NewRuntime(rc)
	if err != nil {
		return nil, err
	}
	center := rc.Grid.Center()
	var genesis []obs.GenesisMark
	if tr != nil {
		for i, in := range fs.Intruders {
			m := obs.GenesisMark{Ship: i, T: in.CrossAt, Note: "crossing"}
			tr.Genesis(m.Ship, m.T, m.Note)
			genesis = append(genesis, m)
		}
	}
	for _, in := range fs.Intruders {
		ship, err := wake.CrossingShip(center,
			in.SpeedKnots, in.HeadingDeg, in.OffsetM, in.CrossAt, in.LengthM)
		if err != nil {
			return nil, err
		}
		rt.AddShip(ship)
	}
	if err := rt.Run(fs.Duration); err != nil {
		return nil, err
	}
	if err := rec.Err(); err != nil {
		return nil, err
	}
	src, err := rec.Source()
	if err != nil {
		return nil, err
	}
	chunks, err := ChunksFromSource(src, src.Positions(), src.Seed(), fs.Duration, fs.ChunkS)
	if err != nil {
		return nil, err
	}
	feed := &Feed{Chunks: chunks}
	for _, r := range rt.SinkReports() {
		feed.Detections = append(feed.Detections, toDetection(r))
	}
	if fs.Journal {
		feed.Journal = append([]byte(nil), buf.Bytes()...)
	}
	if tr != nil {
		feed.Genesis = genesis
		feed.Trace = tr.SerializePipeline()
	}
	return feed, nil
}
