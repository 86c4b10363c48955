package source

import (
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/wake"
)

// indexedSynth builds a spectral deployment on a rows×cols grid with a ship
// wake and a maneuver wake.
func indexedSynth(t *testing.T, rows, cols int, drift float64) *Synthetic {
	t.Helper()
	positions := geo.GridSpec{Rows: rows, Cols: cols, Spacing: 25}.Positions()
	s, err := NewSynthetic(SyntheticConfig{
		Positions:   positions,
		Hs:          0.25,
		Tp:          4.0,
		DriftRadius: drift,
		Seed:        4242,
		Synthesis:   SynthSpectral,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := wake.NewShip(geo.LineThrough(geo.Vec2{X: -200, Y: 40}, geo.Vec2{X: 400, Y: 60}), 5.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	sh.Time0 = -10
	s.AddSource(sh.Wake())
	m, err := wake.NewManeuver(5, 8, []wake.Waypoint{
		{Pos: geo.Vec2{X: -150, Y: 120}, Speed: 4},
		{Pos: geo.Vec2{X: 100, Y: 100}, Speed: 7},
		{Pos: geo.Vec2{X: 350, Y: 160}, Speed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AddSource(wake.ManeuverField{M: m})
	return s
}

// runBlocks drives the source through the pipeline's contract — serial
// PrepareBatch when prepare is set, then every node's Block for the batch —
// and returns all samples flattened per node. Without PrepareBatch every
// Block carries every indexed wake: the unindexed path.
func runBlocks(s *Synthetic, batches, perBatch int, prepare bool) [][]int16 {
	out := make([][]int16, s.NumNodes())
	for b := 0; b < batches; b++ {
		idx := b * perBatch
		t0 := float64(idx) / s.Rate()
		if prepare {
			s.PrepareBatch(idx, t0, perBatch)
		}
		for node := 0; node < s.NumNodes(); node++ {
			for _, smp := range s.Block(node, idx, t0, perBatch) {
				out[node] = append(out[node], smp.X, smp.Y, smp.Z)
			}
		}
	}
	return out
}

// TestIndexedSynthesisBitIdentical is the index's safety contract: routing
// wakes through the spatial index must not change a single quantized sample
// relative to the unindexed spectral path (an identical source whose Blocks
// run without PrepareBatch), with and without buoy drift. The index may
// only skip node-blocks the sensor's own cull would have skipped.
func TestIndexedSynthesisBitIdentical(t *testing.T) {
	for _, drift := range []float64{0, 2} {
		indexed := indexedSynth(t, 8, 8, drift)
		plain := indexedSynth(t, 8, 8, drift)
		const perBatch, batches = 25, 260 // 130 s at 50 Hz: both wakes cross
		a := runBlocks(indexed, batches, perBatch, true)
		b := runBlocks(plain, batches, perBatch, false)
		for node := range a {
			if len(a[node]) != len(b[node]) {
				t.Fatalf("drift %g node %d: %d vs %d samples", drift, node, len(a[node]), len(b[node]))
			}
			for i := range a[node] {
				if a[node][i] != b[node][i] {
					t.Fatalf("drift %g node %d sample %d: indexed %d != unindexed %d",
						drift, node, i, a[node][i], b[node][i])
				}
			}
		}
		st := indexed.SynthesisStats()
		if st.IndexedWakes != 2 {
			t.Fatalf("expected 2 indexed wakes, got %d", st.IndexedWakes)
		}
		if st.IndexNodesOffered == 0 {
			t.Fatalf("index never filtered anything")
		}
		if st.IndexNodeBlocks >= st.IndexNodesOffered {
			t.Fatalf("index selected everything (%d of %d) — no culling value",
				st.IndexNodeBlocks, st.IndexNodesOffered)
		}
		if hr := st.IndexHitRate(); hr <= 0 || hr >= 1 {
			t.Fatalf("implausible index hit rate %g", hr)
		}
		if ps := plain.SynthesisStats(); ps.IndexNodesOffered != 0 {
			t.Fatalf("unprepared run reported index filtering: %+v", ps)
		}
	}
}

// TestIndexSelectionIsConservative checks the inclusion that makes indexing
// safe, directly: every node whose sensor-level cull would evaluate the wake
// (bound above threshold at its drifted position) is in the index's
// selection for that batch.
func TestIndexSelectionIsConservative(t *testing.T) {
	s := indexedSynth(t, 10, 10, 2)
	const perBatch = 25
	for b := 0; b < 200; b += 5 {
		idx := b * perBatch
		t0 := float64(idx) / 50
		t1 := t0 + float64(perBatch-1)/50
		s.PrepareBatch(idx, t0, perBatch)
		for node := range s.nodes {
			ns := &s.nodes[node]
			inBatch := make(map[interface{}]bool)
			for _, m := range ns.batch {
				inBatch[m] = true
			}
			p0 := ns.sens.Buoy.Position(t0)
			for _, bm := range s.boxed {
				ba, bs := bm.Bounds(p0, t0-0.25, t1+0.25)
				wouldEvaluate := ba*1.15 > s.cull.Accel || bs*1.15 > s.cull.Slope
				if wouldEvaluate && !inBatch[bm] {
					t.Fatalf("batch %d node %d: sensor would evaluate wake %T but index dropped it", b, node, bm)
				}
			}
		}
	}
}
