package source

import (
	"math"
	"os"
	"strings"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
)

// stream fabricates a contiguous recorded stream of n samples starting at
// global index start, at the given rate, with recognizable payloads.
func stream(start, n int, rate float64) []sensor.Sample {
	out := make([]sensor.Sample, n)
	for i := range out {
		g := start + i
		out[i] = sensor.Sample{T: float64(g) / rate, X: int16(g), Y: int16(-g), Z: int16(1000 + g%7)}
	}
	return out
}

func TestTraceBlockRecomputesTimes(t *testing.T) {
	const rate = 50.0
	tr, err := TraceFromSamples(rate, 1024, [][]sensor.Sample{stream(0, 200, rate)})
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline's batch clock, not the stored times, must set T: ask for
	// a batch with a deliberately shifted t0 and expect t0 + i/rate exactly.
	const t0 = 123.456
	blk := tr.Block(0, 100, t0, 50)
	if len(blk) != 50 {
		t.Fatalf("Block returned %d samples, want 50", len(blk))
	}
	for i, s := range blk {
		if want := t0 + float64(i)/rate; s.T != want {
			t.Fatalf("sample %d: T = %v, want exactly %v", i, s.T, want)
		}
		if s.X != int16(100+i) {
			t.Fatalf("sample %d: payload X = %d, want %d (wrong global index served)", i, s.X, 100+i)
		}
	}
	// Past the end of the recording the node goes silent.
	if blk := tr.Block(0, 200, 4, 50); blk != nil {
		t.Fatalf("Block past EOF returned %d samples, want nil", len(blk))
	}
}

func TestTraceMidRunStart(t *testing.T) {
	const rate = 50.0
	// A stream whose first sample time is 2 s replays at global index 100,
	// not 0: earlier batches are silent, the overlap batch is partial.
	tr, err := TraceFromSamples(rate, 1024, [][]sensor.Sample{stream(100, 100, rate)})
	if err != nil {
		t.Fatal(err)
	}
	if blk := tr.Block(0, 0, 0, 50); blk != nil {
		t.Fatalf("pre-start batch returned %d samples, want nil", len(blk))
	}
	blk := tr.Block(0, 75, 1.5, 50)
	if len(blk) != 25 {
		t.Fatalf("overlap batch returned %d samples, want 25", len(blk))
	}
	if blk[0].X != 100 {
		t.Fatalf("overlap batch starts at payload %d, want 100", blk[0].X)
	}
	if want := 1.5 + 25.0/rate; blk[0].T != want {
		t.Fatalf("overlap batch first T = %v, want %v", blk[0].T, want)
	}
}

func TestTraceFromSamplesRejectsBadParams(t *testing.T) {
	if _, err := TraceFromSamples(0, 1024, nil); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := TraceFromSamples(50, -1, nil); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestRecordingGapDetected(t *testing.T) {
	var rec Recording
	rec.Init(50, 1024, []geo.Vec2{{}}, 7)
	rec.Append(0, 0, stream(0, 50, 50))
	rec.Append(0, 100, stream(100, 50, 50)) // skipped [50,100): duty-cycle gap
	if rec.Err() == nil {
		t.Fatal("gap not detected")
	}
	if !strings.Contains(rec.Err().Error(), "gap") {
		t.Fatalf("gap error %q does not mention the gap", rec.Err())
	}
	if _, err := rec.Source(); err == nil {
		t.Fatal("Source succeeded on a gapped recording")
	}
	if err := rec.Save(t.TempDir()); err == nil {
		t.Fatal("Save succeeded on a gapped recording")
	}
}

func TestRecordingRoundTripDisk(t *testing.T) {
	const rate, scale = 50.0, 1024.0
	pos := []geo.Vec2{{X: 10, Y: 20}, {X: 30, Y: 40}}
	var rec Recording
	rec.Init(rate, scale, pos, 42)
	for idx := 0; idx < 150; idx += 50 {
		rec.Append(0, idx, stream(idx, 50, rate))
		rec.Append(1, idx, stream(idx, 50, rate))
	}
	dir := t.TempDir()
	if err := rec.Save(dir); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Rate() != rate || tr.Scale() != scale || tr.Seed() != 42 || tr.NumNodes() != 2 {
		t.Fatalf("header round-trip: rate %g scale %g seed %d nodes %d",
			tr.Rate(), tr.Scale(), tr.Seed(), tr.NumNodes())
	}
	got := tr.Positions()
	for i := range pos {
		if math.Abs(got[i].X-pos[i].X) > 1e-9 || math.Abs(got[i].Y-pos[i].Y) > 1e-9 {
			t.Fatalf("node %d position %v, want %v", i, got[i], pos[i])
		}
	}
	// Streamed blocks match the in-memory source sample for sample, and the
	// pending window stays bounded by one decode chunk plus one batch.
	mem, err := rec.Source()
	if err != nil {
		t.Fatal(err)
	}
	const batch = 50
	for idx := 0; idx < 150; idx += batch {
		t0 := float64(idx) / rate
		for node := 0; node < 2; node++ {
			a := append([]sensor.Sample(nil), tr.Block(node, idx, t0, batch)...)
			b := mem.Block(node, idx, t0, batch)
			if len(a) != len(b) {
				t.Fatalf("node %d idx %d: disk %d vs mem %d samples", node, idx, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("node %d idx %d sample %d: disk %+v vs mem %+v", node, idx, i, a[i], b[i])
				}
			}
			if pend := len(tr.nodes[node].pending); pend > decodeChunk+batch {
				t.Fatalf("node %d pending window %d exceeds decodeChunk+batch = %d",
					node, pend, decodeChunk+batch)
			}
		}
	}
}

func TestOpenTraceDirErrors(t *testing.T) {
	if _, err := OpenTraceDir(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
	// Two nodes with mismatched rates must be rejected.
	dir := t.TempDir()
	var a Recording
	a.Init(50, 1024, []geo.Vec2{{}}, 1)
	a.Append(0, 0, stream(0, 10, 50))
	if err := a.Save(dir); err != nil {
		t.Fatal(err)
	}
	var b Recording
	b.Init(100, 1024, []geo.Vec2{{}}, 1)
	b.Append(0, 0, stream(0, 10, 100))
	sub := t.TempDir()
	if err := b.Save(sub); err != nil {
		t.Fatal(err)
	}
	// A single Recording can't hold two rates, so graft b's trace into dir
	// as node_001 by copying the file.
	data, err := os.ReadFile(TraceFile(sub, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(TraceFile(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTraceDir(dir); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("mismatched rates accepted (err = %v)", err)
	}
}

// TestTraceDirReplayRefillsInPlace: a recording of 3×decodeChunk+7
// samples, replayed from disk in 25-sample blocks, serves exactly what
// TraceFromSamples serves from memory. The node decodes into one buffer of
// decodeChunk samples, and once warm a block allocates nothing, refills
// included.
func TestTraceDirReplayRefillsInPlace(t *testing.T) {
	const rate, batch = 50.0, 25
	samples := stream(0, 3*decodeChunk+7, rate)
	var rec Recording
	rec.Init(rate, 1024, []geo.Vec2{{}}, 1)
	rec.Append(0, 0, samples)
	dir := t.TempDir()
	if err := rec.Save(dir); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem, err := TraceFromSamples(rate, 1024, [][]sensor.Sample{samples})
	if err != nil {
		t.Fatal(err)
	}
	idx, mismatch := 0, -1
	serve := func() {
		t0 := float64(idx) / rate
		a, b := disk.Block(0, idx, t0, batch), mem.Block(0, idx, t0, batch)
		if len(a) != len(b) && mismatch < 0 {
			mismatch = idx
		}
		for i := range a {
			if i < len(b) && a[i] != b[i] && mismatch < 0 {
				mismatch = idx
			}
		}
		idx += batch
	}
	w := &disk.nodes[0]
	serve()
	serve()
	decoded := w.idx + len(w.pending)
	// Blocks 2 to 102 cross two refills, at samples 1,000 and 2,000.
	if allocs := testing.AllocsPerRun(100, serve); allocs != 0 {
		t.Errorf("a warm replay block allocates %.2f times, want 0", allocs)
	}
	if refilled := w.idx + len(w.pending) - decoded; refilled < 2*(decodeChunk-batch) {
		t.Fatalf("only %d samples decoded while allocations were counted", refilled)
	}
	for idx < len(samples)+2*batch {
		serve()
	}
	if mismatch >= 0 {
		t.Fatalf("block at sample %d differs between disk and memory replay", mismatch)
	}
	if w.dec != nil || cap(w.buf) != decodeChunk {
		t.Fatalf("drained replay: decoder %v, buffer of %d samples (want nil, %d)", w.dec, cap(w.buf), decodeChunk)
	}
}
