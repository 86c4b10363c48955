package sid

import (
	"testing"

	"github.com/sid-wsn/sid/internal/detect"
)

// TestConsumeBlockNoOpCollectorZeroAllocs pins the observability overhead
// contract: with no journal attached (the default registry-only collector),
// the per-node detection step — the produce fan-out's detectBlock plus the
// consume phase's consumeBlock — must not allocate. Counter increments are
// cached atomic handles and journal payloads are only boxed behind the
// Journaling() guard.
func TestConsumeBlockNoOpCollectorZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	// A high threshold multiplier keeps the quiet sea below the anomaly
	// threshold, so the (allocating) report path never fires and the test
	// measures the pure sense→detect loop.
	cfg.Detect.M = 10
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns := rt.nodes[0]
	// 150 samples span three of detectBlock's 64-sample chunks, so each
	// step runs the filter three times.
	blk := rt.src.Block(0, 0, 0, 150)
	var wins []detect.BlockWindow
	windows := 0
	step := func() {
		wins = detectBlock(ns.det, blk, wins[:0])
		windows += len(wins)
		ns.block = blk
		rt.consumeBlock(ns, wins)
	}
	// Warm up: detector batch buffers, window rings and the window scratch
	// reach steady-state capacity during the first windows.
	for i := 0; i < 50; i++ {
		step()
	}
	if windows == 0 {
		t.Fatal("no anomaly window completed; the replay path went unmeasured")
	}
	allocs := testing.AllocsPerRun(100, step)
	if allocs != 0 {
		t.Errorf("detectBlock+consumeBlock allocated %.1f objects/op with a no-op collector, want 0", allocs)
	}
	if len(rt.nodeReports) != 0 {
		t.Fatalf("quiet sea produced %d node reports; raise Detect.M so the test measures the no-detection path", len(rt.nodeReports))
	}
}

// TestDetectBlockMatchesPush: detectBlock is len(block) calls of Push —
// the same windows, completing at the same block indices — for blocks
// shorter than, equal to and spanning several of its conversion chunks.
func TestDetectBlockMatchesPush(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 9
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	block, err := detect.New(cfg.Detect)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := detect.New(cfg.Detect)
	if err != nil {
		t.Fatal(err)
	}
	idx, windows := 0, 0
	var wins []detect.BlockWindow
	for _, n := range []int{25, detectChunk, 1, 3*detectChunk + 5, 200, 2 * detectChunk, 999, 25} {
		for rep := 0; rep < 20; rep++ {
			blk := rt.src.Block(0, idx, float64(idx)/50, n)
			idx += n
			wins = detectBlock(block, blk, wins[:0])
			var want []detect.BlockWindow
			for i, smp := range blk {
				if ws, ok := ref.Push(smp.T, float64(smp.Z)); ok {
					want = append(want, detect.BlockWindow{At: i, Stat: ws})
				}
			}
			if len(wins) != len(want) {
				t.Fatalf("block of %d at sample %d: %d windows, want %d", n, idx-n, len(wins), len(want))
			}
			for k := range want {
				if wins[k].At != want[k].At || !sameStat(wins[k].Stat, want[k].Stat) {
					t.Fatalf("block of %d at sample %d: window %d is %+v, want %+v", n, idx-n, k, wins[k], want[k])
				}
			}
			windows += len(wins)
		}
	}
	if windows == 0 {
		t.Fatal("no window completed; the comparison would be vacuous")
	}
}

// sameStat compares two windows bit for bit, treating NaN onsets (quiet
// windows) as equal.
func sameStat(a, b detect.WindowStat) bool {
	if a.Onset != b.Onset && !(a.Onset != a.Onset && b.Onset != b.Onset) {
		return false
	}
	a.Onset, b.Onset = 0, 0
	return a == b
}
