// Package serve is the detection-as-a-service layer: a multi-tenant HTTP
// server that runs the SID pipeline as a long-lived service. A tenant is
// one surveillance field: it is created from the public facade's Config
// JSON, fed per-node sample chunks over POST, and streams its journal
// events, sink confirmations and ingest acknowledgments back. The wire
// speaks one format each way: chunks come in as SIDBNDL1 bundles of
// SIDTRACE streams (EncodeBundle), and events go out as NDJSON, one
// obs.Event-shaped object per line.
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
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/trace"
)

// Content types on the wire.
const (
	// ContentTypeJSON is the type of tenant-create bodies and of every
	// JSON response.
	ContentTypeJSON = "application/json"
	// ContentTypeBundle is a binary SIDTRACE bundle (EncodeBundle), the
	// one body the chunk ingest endpoint accepts.
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

// bundleMagic identifies a binary chunk bundle: a duration plus one full
// SIDTRACE recording per node, length-prefixed.
var bundleMagic = [8]byte{'S', 'I', 'D', 'B', 'N', 'D', 'L', '1'}

// EncodeBundle writes one binary ingest chunk: durationS seconds of
// per-node samples, each node serialized as a standalone SIDTRACE stream
// (so the chunk carries rate, scale and positions in-band, and any SIDTRACE
// tooling can open a node's slice). Empty node streams are encoded as
// zero-length entries. pos may be nil (zero positions). Every entry's
// length is known before it is encoded, so the whole bundle goes through
// one buffered writer, which trace.Write writes into directly.
func EncodeBundle(w io.Writer, durationS, rate, scale float64, pos []geo.Vec2, seed int64, nodes [][]sensor.Sample) error {
	if !validDuration(durationS) {
		return fmt.Errorf("serve: bundle duration must be positive and finite, got %g", durationS)
	}
	bw := bufio.NewWriter(w)
	b := append(bw.AvailableBuffer(), bundleMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(durationS))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(nodes)))
	if _, err := bw.Write(b); err != nil {
		return err
	}
	for node, samples := range nodes {
		entryLen := 0
		if len(samples) > 0 {
			entryLen = trace.HeaderBytes + len(samples)*trace.SampleBytes
		}
		if _, err := bw.Write(binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), uint32(entryLen))); err != nil {
			return err
		}
		if entryLen == 0 {
			continue
		}
		h := trace.Header{SampleRate: rate, CountsPerG: scale, StartTime: samples[0].T, Seed: seed}
		if node < len(pos) {
			h.Pos = pos[node]
		}
		if err := trace.Write(bw, h, samples); err != nil {
			return fmt.Errorf("serve: bundle node %d: %w", node, err)
		}
	}
	return bw.Flush()
}

func validDuration(d float64) bool { return d > 0 && !math.IsInf(d, 1) }

// DecodeBundle parses an EncodeBundle chunk. rate and scale are taken from
// the first non-empty node stream (0, 0 for an all-silent chunk).
// Allocation is bounded by the input: the node table grows as entries
// decode rather than at the count the header claims, and the whole body is
// read through one buffer, which every entry's decoder shares.
func DecodeBundle(r io.Reader) (durationS float64, nodes [][]sensor.Sample, rate, scale float64, err error) {
	return decodeBundle(r, nil)
}

// decodeBundle is DecodeBundle with vetNodes, when non-nil, run on the
// declared node count before any entry is read; its error is returned as
// is. The server vets the count against the tenant's nodes, so a body of
// many empty entries cannot grow the node table past the tenant.
func decodeBundle(r io.Reader, vetNodes func(n int) error) (durationS float64, nodes [][]sensor.Sample, rate, scale float64, err error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err = io.ReadFull(br, magic[:]); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("serve: reading bundle magic: %w", err)
	}
	if magic != bundleMagic {
		return 0, nil, 0, 0, errors.New("serve: bad magic (not a chunk bundle)")
	}
	if err = binary.Read(br, binary.LittleEndian, &durationS); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("serve: reading bundle duration: %w", err)
	}
	if !validDuration(durationS) {
		return 0, nil, 0, 0, fmt.Errorf("serve: bundle duration must be positive and finite, got %g", durationS)
	}
	var n uint32
	if err = binary.Read(br, binary.LittleEndian, &n); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("serve: reading bundle node count: %w", err)
	}
	const maxNodes = 1 << 16
	if n > maxNodes {
		return 0, nil, 0, 0, fmt.Errorf("serve: implausible bundle node count %d", n)
	}
	if vetNodes != nil {
		if err = vetNodes(int(n)); err != nil {
			return 0, nil, 0, 0, err
		}
	}
	for i := 0; i < int(n); i++ {
		var byteLen uint32
		if err = binary.Read(br, binary.LittleEndian, &byteLen); err != nil {
			return 0, nil, 0, 0, fmt.Errorf("serve: reading bundle node %d length: %w", i, err)
		}
		if len(nodes) == cap(nodes) {
			// Doubling keeps the table's allocations, summed over its
			// growth, within twice its final size.
			nodes = slices.Grow(nodes, len(nodes)+1)
		}
		nodes = append(nodes, nil)
		if byteLen == 0 {
			continue
		}
		h, samples, err := decodeEntry(br, int(byteLen))
		if err != nil {
			return 0, nil, 0, 0, fmt.Errorf("serve: bundle node %d: %w", i, err)
		}
		if len(samples) == 0 {
			continue // a stream without samples is a silent node
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

// decodeEntry decodes one bundle entry of byteLen bytes from br and leaves
// br at the next entry. The header's sample count is untrusted: one the
// entry's length cannot carry is refused before anything is allocated for
// it, so the decode allocates at most what the entry's bytes can hold and
// never reads past the entry.
func decodeEntry(br *bufio.Reader, byteLen int) (trace.Header, []sensor.Sample, error) {
	if byteLen < trace.HeaderBytes {
		return trace.Header{}, nil, fmt.Errorf("the %d-byte entry is shorter than a SIDTRACE header (%d B)",
			byteLen, trace.HeaderBytes)
	}
	dec, err := trace.NewDecoder(br)
	if err != nil {
		return trace.Header{}, nil, err
	}
	h := dec.Header()
	if room := (byteLen - trace.HeaderBytes) / trace.SampleBytes; h.NumSamples > room {
		return trace.Header{}, nil, fmt.Errorf("header claims %d samples, the %d-byte entry holds at most %d",
			h.NumSamples, byteLen, room)
	}
	samples := make([]sensor.Sample, h.NumSamples)
	if len(samples) > 0 {
		if _, err := dec.Next(samples); err != nil {
			return trace.Header{}, nil, err
		}
	}
	// Skip whatever the entry holds past its trace, so the next entry
	// starts where the length says. A body that ends inside the skipped
	// bytes fails at the next entry's length, if there is one.
	rest := byteLen - trace.HeaderBytes - len(samples)*trace.SampleBytes
	if _, err := br.Discard(rest); err != nil && err != io.EOF {
		return trace.Header{}, nil, err
	}
	return h, samples, nil
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
