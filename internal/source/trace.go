package source

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/trace"
)

// decodeChunk is how many samples a trace node's buffer holds for
// decoding: each refill tops the buffer up from the node's stream. It
// bounds a replay's per-node memory at decodeChunk samples (16 KiB), or one
// batch when that is longer, independent of the recording length, which is
// what lets a deployment replay an unbounded stream.
const decodeChunk = 1024

// window is one node's index-addressed sample buffer, the one mechanism
// behind replay, the push feed and Recording: pending holds the samples
// with global indices [idx, idx+len(pending)). A replay window opened by
// OpenTraceDir also owns the node's streaming decoder (nil once drained)
// and its file.
//
// A window keeps one buffer, buf, and pending lies inside it: decoding
// refills it in place and add copies into it, first moving pending to the
// front, so a warm window allocates nothing. A window TraceFromSamples
// builds serves the caller's slice instead (buf nil) and copies it into a
// buffer of its own only if something is added.
type window struct {
	buf     []sensor.Sample // the window's own storage; nil while pending is the caller's
	pending []sensor.Sample // held, not yet served
	idx     int             // global index of pending[0]
	began   bool            // idx is pinned: the stream has started
	out     []sensor.Sample // reused per-call output block
	dec     *trace.Decoder
	file    io.Closer
}

// reserve makes room for k more samples after pending: it moves pending to
// the front of the buffer when the room is at the back, and allocates a
// larger buffer only when pending plus k would not fit. A new buffer fits
// exactly what the window then holds, or twice what it held if that is
// more: a drained window (replay, push) settles at one refill or one chunk
// plus one batch, and a never-drained one (Recording) grows geometrically.
func (w *window) reserve(k int) {
	need := len(w.pending) + k
	if need > cap(w.buf) {
		w.buf = make([]sensor.Sample, max(need, 2*len(w.pending)))
		w.pending = w.buf[:copy(w.buf, w.pending)]
	} else if cap(w.pending)-len(w.pending) < k {
		w.pending = w.buf[:copy(w.buf, w.pending)]
	}
}

// add appends samples whose first has global index idx. The first
// non-empty add pins the window's start; every later one must continue
// exactly where the window ends, because serving by index would silently
// misalign onsets after a gap or an overlap.
func (w *window) add(idx int, samples []sensor.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	if !w.began {
		w.began = true
		w.idx = idx
	} else if want := w.idx + len(w.pending); idx != want {
		return fmt.Errorf("stream has a gap at sample %d (expected %d)", idx, want)
	}
	w.reserve(len(samples))
	w.pending = append(w.pending, samples...)
	return nil
}

// drop discards the samples before global index idx. Per-node batches
// arrive in strictly increasing idx order, so this keeps the window
// bounded.
func (w *window) drop(idx int) {
	if d := min(idx-w.idx, len(w.pending)); d > 0 {
		w.pending = w.pending[d:]
		w.idx += d
	}
}

// refill decodes the node's next samples into all the room its buffer has,
// a buffer of at least decodeChunk samples and at least one batch of n.
func (w *window) refill(n int) {
	w.reserve(max(decodeChunk, n) - len(w.pending))
	got, err := w.dec.Next(w.pending[len(w.pending):cap(w.pending)])
	w.pending = w.pending[:len(w.pending)+got]
	if err != nil {
		// EOF ends the stream cleanly; a short or corrupt file also ends
		// it — the pipeline treats the node as silent from here.
		w.dec = nil
	}
}

// block serves the samples with global indices in [idx, idx+n), with
// times recomputed as t0 + (j−idx)/rate — the exact formula
// sensor.SampleBlock uses, which is what makes replayed and pushed onsets
// bit-identical to the originating simulation. It drops everything before
// idx and decodes from the node's file, if it has one, until the window
// covers the batch.
func (w *window) block(idx int, t0 float64, n int, rate float64) []sensor.Sample {
	w.drop(idx)
	for w.dec != nil && w.idx+len(w.pending) < idx+n {
		w.refill(n)
		w.drop(idx)
	}
	w.out = w.out[:0]
	for j := max(idx, w.idx); j < idx+n && j-w.idx < len(w.pending); j++ {
		s := w.pending[j-w.idx]
		s.T = t0 + float64(j-idx)/rate
		w.out = append(w.out, s)
	}
	if len(w.out) == 0 {
		return nil
	}
	return w.out
}

// Trace replays SIDTRACE recordings, one per node, through the detection
// pipeline. Construct with TraceFromSamples (in-memory), OpenTraceDir
// (streaming from disk) or NewPush (fed by an external producer). Sample
// times are recomputed from the pipeline's batch clock — not the stored
// times — so a replay is bit-identical in time to the synthesis that
// recorded it.
type Trace struct {
	rate  float64
	scale float64
	pos   []geo.Vec2
	seed  int64
	nodes []window
}

// TraceFromSamples builds an in-memory replay source: nodes[i] is node i's
// recorded stream (may be empty — that node never senses). The global index
// of each stream's first sample is reconstructed from its first sample time
// as round(T·rate), so recordings that began mid-run replay in place.
func TraceFromSamples(rate, scale float64, nodes [][]sensor.Sample) (*Trace, error) {
	if rate <= 0 || scale <= 0 {
		return nil, fmt.Errorf("source: trace rate and scale must be positive, got %g, %g", rate, scale)
	}
	t := &Trace{rate: rate, scale: scale, pos: make([]geo.Vec2, len(nodes))}
	for _, samples := range nodes {
		w := window{pending: samples, began: len(samples) > 0}
		if w.began {
			w.idx = globalIndex(samples[0].T, rate)
		}
		t.nodes = append(t.nodes, w)
	}
	return t, nil
}

// NewPush returns an empty trace serving numNodes node streams, which an
// external producer — the detection server's ingest path — feeds through
// Append. A pushed stream is served by global index exactly like a replay,
// so it is bit-identical through the pipeline to the synthesis that
// produced it.
func NewPush(rate, scale float64, numNodes int) (*Trace, error) {
	if rate <= 0 || scale <= 0 {
		return nil, fmt.Errorf("source: push rate and scale must be positive, got %g, %g", rate, scale)
	}
	if numNodes <= 0 {
		return nil, fmt.Errorf("source: push needs at least one node stream, got %d", numNodes)
	}
	return &Trace{rate: rate, scale: scale, pos: make([]geo.Vec2, numNodes), nodes: make([]window, numNodes)}, nil
}

// Append feeds one node's next samples into a trace built by NewPush. The
// first append pins the stream's global start index from its first sample
// time (round(T·rate), as TraceFromSamples does); every later append must
// continue exactly where the previous one ended, or it is an error. An
// empty append is a no-op (the node is silent for this chunk). Append
// copies the samples.
//
// The feed-then-run discipline is the memory bound: each Append is followed
// by a Run covering it, Block drops consumed samples, and the window never
// holds more than one chunk plus one batch. Append must not run
// concurrently with Block — the producer and the pipeline alternate (the
// serving layer's per-tenant loop guarantees this); Block calls on
// distinct nodes may be concurrent, per the Source contract.
func (t *Trace) Append(node int, samples []sensor.Sample) error {
	if node < 0 || node >= len(t.nodes) {
		return fmt.Errorf("source: push has no node %d", node)
	}
	if len(samples) == 0 {
		return nil
	}
	if err := t.nodes[node].add(globalIndex(samples[0].T, t.rate), samples); err != nil {
		return fmt.Errorf("source: push node %d %w", node, err)
	}
	return nil
}

// globalIndex converts a sample time to its global index at the given rate.
func globalIndex(t, rate float64) int { return int(t*rate + 0.5) }

// TraceFile returns the canonical per-node recording filename inside a
// trace directory.
func TraceFile(dir string, node int) string {
	return filepath.Join(dir, fmt.Sprintf("node_%03d.sidtrc", node))
}

// OpenTraceDir opens a directory of per-node recordings (node_000.sidtrc,
// node_001.sidtrc, …) as a streaming replay source. Nodes are read
// incrementally during replay; call Close when done. All recordings must
// share one sample rate and ADC scale.
func OpenTraceDir(dir string) (*Trace, error) {
	t := &Trace{}
	for node := 0; ; node++ {
		f, err := os.Open(TraceFile(dir, node))
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		if err != nil {
			t.Close()
			return nil, err
		}
		dec, err := trace.NewDecoder(f)
		if err != nil {
			f.Close()
			t.Close()
			return nil, fmt.Errorf("source: node %d: %w", node, err)
		}
		h := dec.Header()
		if node == 0 {
			t.rate, t.scale, t.seed = h.SampleRate, h.CountsPerG, h.Seed
		} else if h.SampleRate != t.rate || h.CountsPerG != t.scale {
			f.Close()
			t.Close()
			return nil, fmt.Errorf("source: node %d rate/scale %g/%g differs from node 0's %g/%g",
				node, h.SampleRate, h.CountsPerG, t.rate, t.scale)
		}
		t.pos = append(t.pos, h.Pos)
		t.nodes = append(t.nodes, window{
			idx: globalIndex(h.StartTime, h.SampleRate), began: true, dec: dec, file: f,
		})
	}
	if len(t.nodes) == 0 {
		return nil, fmt.Errorf("source: no node traces (node_000.sidtrc …) in %s", dir)
	}
	return t, nil
}

// Close releases any open trace files. Safe on an in-memory trace.
func (t *Trace) Close() error {
	var first error
	for i := range t.nodes {
		if f := t.nodes[i].file; f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
			t.nodes[i].file = nil
		}
	}
	return first
}

// Rate implements Source.
func (t *Trace) Rate() float64 { return t.rate }

// Scale implements Source.
func (t *Trace) Scale() float64 { return t.scale }

// NumNodes implements Source.
func (t *Trace) NumNodes() int { return len(t.nodes) }

// Seed returns the generating scenario's seed recorded in the trace
// headers (0 for real or in-memory data).
func (t *Trace) Seed() int64 { return t.seed }

// Positions returns the recorded buoy positions, indexed by node.
func (t *Trace) Positions() []geo.Vec2 { return t.pos }

// Block implements Source. Decoding happens here, on the goroutine that
// owns this node for the batch.
func (t *Trace) Block(node, idx int, t0 float64, n int) []sensor.Sample {
	return t.nodes[node].block(idx, t0, n, t.rate)
}
