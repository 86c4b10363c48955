package source

import (
	"testing"

	"github.com/sid-wsn/sid/internal/sensor"
)

func pushSamples(n int, t0, rate float64, base int16) []sensor.Sample {
	out := make([]sensor.Sample, n)
	for i := range out {
		out[i] = sensor.Sample{T: t0 + float64(i)/rate, X: base + int16(i), Y: 2, Z: 3}
	}
	return out
}

func TestPushValidation(t *testing.T) {
	if _, err := NewPush(0, 1024, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewPush(50, 0, 1); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := NewPush(50, 1024, 0); err == nil {
		t.Error("zero nodes accepted")
	}
	p, err := NewPush(50, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate() != 50 || p.Scale() != 1024 || p.NumNodes() != 2 {
		t.Errorf("accessors: rate=%g scale=%g nodes=%d", p.Rate(), p.Scale(), p.NumNodes())
	}
	if err := p.Append(5, pushSamples(1, 0, 50, 0)); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := p.Append(0, nil); err != nil {
		t.Errorf("empty append must be a silent no-op, got %v", err)
	}
}

// TestPushBlockMirrorsTrace pins a pushed stream's replay semantics:
// samples are served by global index with times recomputed from the batch
// clock, and consumed samples are dropped.
func TestPushBlockMirrorsTrace(t *testing.T) {
	const rate = 50.0
	p, err := NewPush(rate, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append(0, pushSamples(25, 0, rate, 0)); err != nil {
		t.Fatal(err)
	}
	blk := p.Block(0, 0, 0, 25)
	if len(blk) != 25 {
		t.Fatalf("block of %d, want 25", len(blk))
	}
	for i, s := range blk {
		if s.X != int16(i) || s.T != float64(i)/rate {
			t.Fatalf("sample %d: %+v", i, s)
		}
	}

	// Next chunk continues the stream; the consumed window is droppable.
	if err := p.Append(0, pushSamples(25, 0.5, rate, 25)); err != nil {
		t.Fatal(err)
	}
	if n := len(p.nodes[0].pending); n != 50 {
		t.Errorf("pending %d, want 50 (nothing dropped until the next Block)", n)
	}
	blk = p.Block(0, 25, 0.5, 25)
	if len(blk) != 25 || blk[0].X != 25 || blk[0].T != 0.5 {
		t.Fatalf("second block: len=%d first=%+v", len(blk), blk[0])
	}
	if n := len(p.nodes[0].pending); n != 25 {
		t.Errorf("pending %d after consuming block, want 25", n)
	}

	// A gap or an overlap is a stream error, not a silent misalignment.
	if err := p.Append(0, pushSamples(5, 1.5, rate, 0)); err == nil {
		t.Error("gapped append accepted")
	}
	if err := p.Append(0, pushSamples(5, 0.9, rate, 0)); err == nil {
		t.Error("overlapping append accepted")
	}

	// Asking past the buffered window serves what exists, nothing more.
	if err := p.Append(0, pushSamples(10, 1.0, rate, 50)); err != nil {
		t.Fatal(err)
	}
	blk = p.Block(0, 50, 1.0, 25)
	if len(blk) != 10 {
		t.Errorf("partial window served %d, want 10", len(blk))
	}
	if blk = p.Block(0, 75, 1.5, 25); blk != nil {
		t.Errorf("exhausted window served %d samples", len(blk))
	}
}

// TestPushLateStart pins the replay behavior for a pushed stream whose first
// sample arrives mid-run: earlier blocks are silent, the stream then
// serves from its pinned global start index.
func TestPushLateStart(t *testing.T) {
	const rate = 50.0
	p, err := NewPush(rate, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append(0, pushSamples(25, 10, rate, 0)); err != nil {
		t.Fatal(err)
	}
	if blk := p.Block(0, 0, 0, 25); blk != nil {
		t.Errorf("pre-start block served %d samples", len(blk))
	}
	blk := p.Block(0, 500, 10, 25)
	if len(blk) != 25 || blk[0].T != 10 {
		t.Fatalf("late stream: len=%d first=%+v", len(blk), blk)
	}
}
