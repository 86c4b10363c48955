package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/trace"
)

func TestBundleRoundTrip(t *testing.T) {
	nodes := [][]sensor.Sample{
		{{T: 0, X: 1, Y: 2, Z: 3}, {T: 0.02, X: 4, Y: 5, Z: 6}},
		nil, // silent node
		{{T: 0, X: -7, Y: 8, Z: -9}},
	}
	pos := []geo.Vec2{{X: 0, Y: 0}, {X: 25, Y: 0}, {X: 50, Y: 0}}
	var buf bytes.Buffer
	if err := EncodeBundle(&buf, 2.5, 50, 1024, pos, 42, nodes); err != nil {
		t.Fatal(err)
	}
	dur, got, rate, scale, err := DecodeBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dur != 2.5 || rate != 50 || scale != 1024 {
		t.Fatalf("dur=%g rate=%g scale=%g", dur, rate, scale)
	}
	if len(got) != 3 || got[1] != nil {
		t.Fatalf("decoded %d node streams, silent=%v", len(got), got[1])
	}
	for node := range nodes {
		if len(got[node]) != len(nodes[node]) {
			t.Fatalf("node %d: %d samples, want %d", node, len(got[node]), len(nodes[node]))
		}
		for i, s := range nodes[node] {
			g := got[node][i]
			if g.X != s.X || g.Y != s.Y || g.Z != s.Z {
				t.Errorf("node %d sample %d: %+v != %+v", node, i, g, s)
			}
		}
	}

	if _, _, _, _, err := DecodeBundle(bytes.NewReader([]byte("BADMAGIC"))); err == nil {
		t.Error("bad magic accepted")
	}
	if err := EncodeBundle(&buf, 0, 50, 1024, nil, 0, nil); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestChunksFromSource pins that slicing a trace into bundles and decoding
// them back reproduces the trace's samples, chunk-aligned.
// TestEncodeBundleAllocs: one 25-node 10 s chunk (76,720 B) encodes
// through a single buffered writer, a few allocations in all (one
// trace.Write buffer per node entry used to cost 54 allocations and
// 105,632 B), and the bytes are the length-prefixed standalone SIDTRACE
// recordings the format defines.
func TestEncodeBundleAllocs(t *testing.T) {
	const nodes, perNode = 25, 500
	chunk := make([][]sensor.Sample, nodes)
	pos := make([]geo.Vec2, nodes)
	for n := range chunk {
		pos[n] = geo.Vec2{X: float64(25 * n), Y: 50}
		chunk[n] = make([]sensor.Sample, perNode)
		for i := range chunk[n] {
			chunk[n][i] = sensor.Sample{T: 10 + float64(i)/50, X: int16(n - i), Y: int16(3 * i), Z: int16(1024 + n*i%97)}
		}
	}
	var buf bytes.Buffer
	if err := EncodeBundle(&buf, 10, 50, 1024, pos, 7, chunk); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 76720 {
		t.Fatalf("encoded %d B, want 76,720", buf.Len())
	}
	// The reference encoding: header, then each node's length and its
	// own trace.Write output.
	want := append(bundleMagic[:], make([]byte, 12)...)
	binary.LittleEndian.PutUint64(want[8:], math.Float64bits(10))
	binary.LittleEndian.PutUint32(want[16:], nodes)
	for n, samples := range chunk {
		var entry bytes.Buffer
		h := trace.Header{SampleRate: 50, CountsPerG: 1024, Pos: pos[n], StartTime: samples[0].T, Seed: 7}
		if err := trace.Write(&entry, h, samples); err != nil {
			t.Fatal(err)
		}
		want = binary.LittleEndian.AppendUint32(want, uint32(entry.Len()))
		want = append(want, entry.Bytes()...)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("bundle bytes differ from the per-entry reference encoding")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := EncodeBundle(io.Discard, 10, 50, 1024, pos, 7, chunk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("encoding the chunk allocated %.0f times, want ≤ 3", allocs)
	}
}

func TestChunksFromSource(t *testing.T) {
	const rate, scale = 50.0, 1024.0
	mk := func(n int, t0 float64) []sensor.Sample {
		out := make([]sensor.Sample, n)
		for i := range out {
			out[i] = sensor.Sample{T: t0 + float64(i)/rate, X: int16(i), Y: int16(2 * i), Z: int16(3 * i)}
		}
		return out
	}
	all := [][]sensor.Sample{mk(100, 0), mk(100, 0)} // two nodes, 2 s
	tr, err := source.TraceFromSamples(rate, scale, all)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := ChunksFromSource(tr, nil, 9, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("%d chunks, want 4", len(chunks))
	}
	for k, chunk := range chunks {
		dur, nodes, _, _, err := DecodeBundle(bytes.NewReader(chunk))
		if err != nil {
			t.Fatalf("chunk %d: %v", k, err)
		}
		if dur != 0.5 || len(nodes) != 2 {
			t.Fatalf("chunk %d: dur=%g nodes=%d", k, dur, len(nodes))
		}
		for node := range nodes {
			want := all[node][k*25 : (k+1)*25]
			if len(nodes[node]) != 25 {
				t.Fatalf("chunk %d node %d: %d samples", k, node, len(nodes[node]))
			}
			for i := range want {
				g := nodes[node][i]
				if g.X != want[i].X || g.Y != want[i].Y || g.Z != want[i].Z {
					t.Fatalf("chunk %d node %d sample %d differs", k, node, i)
				}
			}
		}
	}
}

// inflatedBundle is a 20-byte bundle header that claims the maximum node
// count and then ends.
func inflatedBundle() []byte {
	body := emptyBundle(1)
	binary.LittleEndian.PutUint32(body[16:], 1<<16)
	return body
}

// lyingEntryBundle is a 94-byte bundle whose one entry carries one sample
// under a SIDTRACE header claiming 32,768.
func lyingEntryBundle() []byte {
	var entry bytes.Buffer
	if err := trace.Write(&entry, trace.Header{SampleRate: 50, CountsPerG: 1024}, make([]sensor.Sample, 1)); err != nil {
		panic(err)
	}
	e := entry.Bytes()
	binary.LittleEndian.PutUint64(e[trace.HeaderBytes-8:], 1<<15) // the header's last field is the count
	body := inflatedBundle()
	binary.LittleEndian.PutUint32(body[16:], 1) // one node stream
	body = binary.LittleEndian.AppendUint32(body, uint32(len(e)))
	return append(body, e...)
}

// entriesBundle is a bundle of n node streams, each one SIDTRACE recording
// of the given samples.
func entriesBundle(n int, samples []sensor.Sample) []byte {
	var entry bytes.Buffer
	if err := trace.Write(&entry, trace.Header{SampleRate: 50, CountsPerG: 1024}, samples); err != nil {
		panic(err)
	}
	body := inflatedBundle()
	binary.LittleEndian.PutUint32(body[16:], uint32(n))
	for range n {
		body = binary.LittleEndian.AppendUint32(body, uint32(entry.Len()))
		body = append(body, entry.Bytes()...)
	}
	return body
}

// TestDecodeBundleAllocBoundedByInput: neither a header that claims 65,536
// node streams in a 20-byte body nor an entry that claims 32,768 samples in
// 70 bytes may allocate for what it claims. A valid bundle of many small
// entries — 65,536 header-only streams (4,456,468 B) or 1,000 one-sample
// streams (74,020 B) — allocates under 4× its length.
func TestDecodeBundleAllocBoundedByInput(t *testing.T) {
	for _, c := range []struct {
		name   string
		body   []byte
		accept bool
		limit  uint64
	}{
		{"node count", inflatedBundle(), false, 64 << 10},
		{"sample count", lyingEntryBundle(), false, 64 << 10},
		{"header-only entries", entriesBundle(1<<16, nil), true, 0},
		{"one-sample entries", entriesBundle(1000, make([]sensor.Sample, 1)), true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			limit := c.limit
			if limit == 0 {
				limit = 4 * uint64(len(c.body))
			}
			// The minimum over a few tries discounts allocation by other goroutines.
			least := uint64(math.MaxUint64)
			for try := 0; try < 5; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, _, _, _, err := DecodeBundle(bytes.NewReader(c.body))
				runtime.ReadMemStats(&after)
				if c.accept && err != nil {
					t.Fatalf("valid bundle refused: %v", err)
				}
				if !c.accept && err == nil {
					t.Fatal("lying bundle accepted")
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least >= limit {
				t.Errorf("decoding a %d-byte bundle allocated %d B, want < %d B", len(c.body), least, limit)
			}
		})
	}
}

// FuzzDecodeBundle: DecodeBundle never panics, and whatever it accepts
// re-encodes and decodes to the same duration, rate, scale and samples.
func FuzzDecodeBundle(f *testing.F) {
	var valid bytes.Buffer
	nodes := [][]sensor.Sample{{{T: 1, X: 1, Y: -2, Z: 3}, {T: 1.02, X: 4}}, nil, {{T: 1, Z: -9}}}
	if err := EncodeBundle(&valid, 0.5, 50, 1024, nil, 3, nodes); err != nil {
		f.Fatal(err)
	}
	var silent bytes.Buffer
	if err := EncodeBundle(&silent, 1, 50, 1024, nil, 0, make([][]sensor.Sample, 4)); err != nil {
		f.Fatal(err)
	}
	// One entry holding a complete SIDTRACE header and no samples: a silent
	// node, which must not set the bundle's rate and scale.
	var header bytes.Buffer
	if err := trace.Write(&header, trace.Header{SampleRate: 50, CountsPerG: 1024}, nil); err != nil {
		f.Fatal(err)
	}
	empty := inflatedBundle()
	binary.LittleEndian.PutUint32(empty[16:], 1) // one node stream
	empty = binary.LittleEndian.AppendUint32(empty, uint32(header.Len()))
	empty = append(empty, header.Bytes()...)
	f.Add(valid.Bytes())
	f.Add(empty)
	f.Add(valid.Bytes()[:valid.Len()-3]) // truncated mid-sample
	f.Add(silent.Bytes())
	f.Add(inflatedBundle())
	f.Add(lyingEntryBundle())
	f.Add([]byte("SIDBNDL1"))
	f.Add([]byte("NOTMAGIC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dur, nodes, rate, scale, err := DecodeBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeBundle(&buf, dur, rate, scale, nil, 0, nodes); err != nil {
			t.Fatalf("re-encoding an accepted bundle: %v", err)
		}
		dur2, nodes2, rate2, scale2, err := DecodeBundle(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded bundle: %v", err)
		}
		if dur2 != dur || rate2 != rate || scale2 != scale {
			t.Fatalf("round trip: dur/rate/scale %g/%g/%g, want %g/%g/%g", dur2, rate2, scale2, dur, rate, scale)
		}
		if len(nodes2) != len(nodes) {
			t.Fatalf("round trip: %d node streams, want %d", len(nodes2), len(nodes))
		}
		for i := range nodes {
			if !reflect.DeepEqual(nodes2[i], nodes[i]) {
				t.Fatalf("round trip: node %d samples differ", i)
			}
		}
	})
}
