// Package serve is the detection-as-a-service layer: a multi-tenant HTTP
// server that runs the SID pipeline as a long-lived service. A tenant is
// one surveillance field: it is created from the public facade's Config
// JSON, fed per-node sample chunks (JSON blocks or binary SIDTRACE
// bundles) over POST, and streams its journal events, sink confirmations
// and ingest acknowledgments back over SSE or chunked JSONL.
//
// The serving contract extends the repo's determinism guarantee to the
// wire: a tenant fed the recording of a simulated run produces detections
// byte-identical to the facade running the same configuration in process,
// for any server worker count and any per-tenant Workers value. Ingest is
// explicitly backpressured — each tenant has a bounded chunk queue, a full
// queue yields 429 with Retry-After, and a slow event consumer stalls its
// tenant's pipeline (filling the queue) rather than buffering without
// bound. See docs/SERVING.md.
package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/trace"
)

// Content types accepted by the chunk ingest endpoint.
const (
	// ContentTypeJSON is a Chunk as a JSON document.
	ContentTypeJSON = "application/json"
	// ContentTypeBundle is a binary SIDTRACE bundle (EncodeBundle).
	ContentTypeBundle = "application/x-sidtrace"
)

// Event kinds the server adds to the stream alongside the pipeline's own
// journal kinds (obs.Kind*). Every stream line is one obs.Event-shaped JSON
// object {"t","kind","data"} with t in simulation time, so the stream stays
// deterministic for a given tenant spec and sample feed.
const (
	// KindDetection is a confirmed intrusion; data is the facade's
	// Detection, byte-identical to marshaling an in-process run's result.
	KindDetection = "serve.detection"
	// KindIngest acknowledges one fully processed chunk (payload
	// IngestDone) — the sink confirmation that ingest latency is measured
	// against.
	KindIngest = "serve.ingest"
	// KindEnd is the stream's terminal event (payload EndOfStream),
	// emitted when the tenant is deleted or the server shuts down.
	KindEnd = "serve.end"
	// KindError reports a pipeline failure (payload StreamError); the
	// tenant refuses further ingest afterwards.
	KindError = "serve.error"

	// sseJournal is the SSE event name for passthrough journal lines
	// (their JSON "kind" carries the precise obs kind).
	sseJournal = "journal"
)

// IngestDone is the payload of KindIngest.
type IngestDone struct {
	// Seq is the chunk's ingest sequence number (0-based).
	Seq int `json:"seq"`
	// TEnd is the tenant's simulated time after the chunk.
	TEnd float64 `json:"t_end"`
	// Samples is how many samples the chunk carried across all nodes.
	Samples int `json:"samples"`
}

// EndOfStream is the payload of KindEnd.
type EndOfStream struct {
	IngestedS  float64 `json:"ingested_s"`
	Detections int     `json:"detections"`
}

// StreamError is the payload of KindError.
type StreamError struct {
	Err string `json:"err"`
}

// Sample is one three-axis accelerometer reading on the JSON wire. T is
// the absolute sample time in seconds on the tenant's simulated timeline;
// X, Y, Z are ADC counts.
type Sample struct {
	T float64 `json:"t"`
	X int16   `json:"x"`
	Y int16   `json:"y"`
	Z int16   `json:"z"`
}

// Chunk is the JSON ingest body: DurationS seconds of per-node samples.
// DurationS must be a positive multiple of the deployment's sensing batch
// (0.5 s by default); Nodes[i] is node i's samples for the window and may
// be short or empty (the node is silent — a chunk with no samples at all
// still advances simulated time). Nodes may list fewer streams than the
// grid has; trailing nodes are silent.
type Chunk struct {
	DurationS float64    `json:"duration_s"`
	Nodes     [][]Sample `json:"nodes"`
}

// Samples converts the wire chunk to per-node sensor samples.
func (c Chunk) Samples() [][]sensor.Sample {
	out := make([][]sensor.Sample, len(c.Nodes))
	for i, ns := range c.Nodes {
		if len(ns) == 0 {
			continue
		}
		out[i] = make([]sensor.Sample, len(ns))
		for j, s := range ns {
			out[i][j] = sensor.Sample{T: s.T, X: s.X, Y: s.Y, Z: s.Z}
		}
	}
	return out
}

// bundleMagic identifies a binary chunk bundle: a duration plus one full
// SIDTRACE recording per node, length-prefixed.
var bundleMagic = [8]byte{'S', 'I', 'D', 'B', 'N', 'D', 'L', '1'}

// EncodeBundle writes one binary ingest chunk: durationS seconds of
// per-node samples, each node serialized as a standalone SIDTRACE stream
// (so the chunk carries rate, scale and positions in-band, and any SIDTRACE
// tooling can open a node's slice). Empty node streams are encoded as
// zero-length entries. pos may be nil (zero positions).
func EncodeBundle(w io.Writer, durationS, rate, scale float64, pos []geo.Vec2, seed int64, nodes [][]sensor.Sample) error {
	if !validDuration(durationS) {
		return fmt.Errorf("serve: bundle duration must be positive and finite, got %g", durationS)
	}
	if _, err := w.Write(bundleMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, durationS); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(nodes))); err != nil {
		return err
	}
	var buf bytes.Buffer
	for node, samples := range nodes {
		buf.Reset()
		if len(samples) > 0 {
			h := trace.Header{SampleRate: rate, CountsPerG: scale, StartTime: samples[0].T, Seed: seed}
			if node < len(pos) {
				h.Pos = pos[node]
			}
			if err := trace.Write(&buf, h, samples); err != nil {
				return fmt.Errorf("serve: bundle node %d: %w", node, err)
			}
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(buf.Len())); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

func validDuration(d float64) bool { return d > 0 && !math.IsInf(d, 1) }

// DecodeBundle parses an EncodeBundle chunk. rate and scale are taken from
// the first non-empty node stream (0, 0 for an all-silent chunk).
func DecodeBundle(r io.Reader) (durationS float64, nodes [][]sensor.Sample, rate, scale float64, err error) {
	var magic [8]byte
	if _, err = io.ReadFull(r, magic[:]); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("serve: reading bundle magic: %w", err)
	}
	if magic != bundleMagic {
		return 0, nil, 0, 0, errors.New("serve: bad magic (not a chunk bundle)")
	}
	if err = binary.Read(r, binary.LittleEndian, &durationS); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("serve: reading bundle duration: %w", err)
	}
	if !validDuration(durationS) {
		return 0, nil, 0, 0, fmt.Errorf("serve: bundle duration must be positive and finite, got %g", durationS)
	}
	var n uint32
	if err = binary.Read(r, binary.LittleEndian, &n); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("serve: reading bundle node count: %w", err)
	}
	const maxNodes = 1 << 16
	if n > maxNodes {
		return 0, nil, 0, 0, fmt.Errorf("serve: implausible bundle node count %d", n)
	}
	nodes = make([][]sensor.Sample, n)
	for i := range nodes {
		var byteLen uint32
		if err = binary.Read(r, binary.LittleEndian, &byteLen); err != nil {
			return 0, nil, 0, 0, fmt.Errorf("serve: reading bundle node %d length: %w", i, err)
		}
		if byteLen == 0 {
			continue
		}
		h, samples, err := trace.Read(io.LimitReader(r, int64(byteLen)))
		if err != nil {
			return 0, nil, 0, 0, fmt.Errorf("serve: bundle node %d: %w", i, err)
		}
		if rate == 0 {
			rate, scale = h.SampleRate, h.CountsPerG
		} else if h.SampleRate != rate || h.CountsPerG != scale {
			return 0, nil, 0, 0, fmt.Errorf("serve: bundle node %d rate/scale %g/%g differs from %g/%g",
				i, h.SampleRate, h.CountsPerG, rate, scale)
		}
		nodes[i] = samples
	}
	return durationS, nodes, rate, scale, nil
}

// ChunksFromSource slices a replayable source (typically a Recording's
// Trace) into encoded bundle chunks of chunkDur seconds covering [0,
// total). It drives the Source contract exactly like the pipeline does —
// strictly increasing global indices per node — so it consumes streaming
// traces in bounded memory. BuildFeed's chunks are these bytes, which
// clients post straight to the ingest endpoint.
func ChunksFromSource(src source.Source, pos []geo.Vec2, seed int64, total, chunkDur float64) ([][]byte, error) {
	if chunkDur <= 0 || total <= 0 {
		return nil, fmt.Errorf("serve: total and chunkDur must be positive, got %g, %g", total, chunkDur)
	}
	rate := src.Rate()
	perChunk := int(chunkDur*rate + 0.5)
	if perChunk < 1 {
		return nil, fmt.Errorf("serve: chunkDur %g below one sample at %g Hz", chunkDur, rate)
	}
	nChunks := int(total/chunkDur + 0.5)
	out := make([][]byte, 0, nChunks)
	for k := 0; k < nChunks; k++ {
		t0 := float64(k) * chunkDur
		nodes := make([][]sensor.Sample, src.NumNodes())
		for node := range nodes {
			blk := src.Block(node, k*perChunk, t0, perChunk)
			if len(blk) > 0 {
				nodes[node] = append([]sensor.Sample(nil), blk...)
			}
		}
		var buf bytes.Buffer
		if err := EncodeBundle(&buf, chunkDur, rate, src.Scale(), pos, seed, nodes); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}
