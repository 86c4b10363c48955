package sid

import (
	"math"
	"testing"

	"github.com/sid-wsn/sid/internal/adversary"
)

// TestByzantineRunDeterministicAcrossWorkers: an attacked, defended run
// must be bit-identical for any Workers value — injections are scheduler
// events drawing from a dedicated stream in the serial phases, so the
// parallel sample fan-out cannot reorder them.
func TestByzantineRunDeterministicAcrossWorkers(t *testing.T) {
	base := func(workers int) *Runtime {
		cfg := DefaultConfig()
		cfg.Seed = 404
		cfg.Workers = workers
		cfg.Defense = DefaultDefenseConfig()
		cfg.Adversary = adversary.Plan{
			Byzantine: adversary.ByzantineFraction(cfg.Grid.NumNodes(), 0.2,
				adversary.ByzantineNode{Behavior: adversary.Fabricate, Start: 120, Period: 15, Count: 8, EnergyBase: 50},
				cfg.Seed, int(SinkNode)),
			ClockSpoofs: []adversary.ClockSpoof{{Node: 7, At: 60, SkewPPM: 8000}},
		}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.AddShip(crossGridShip(t, cfg, 10, 150))
		if err := rt.Run(350); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	serial := base(1)
	parallel := base(4)
	if a, b := serial.InjectedReports(), parallel.InjectedReports(); a != b || a == 0 {
		t.Errorf("injections differ (or zero): %d vs %d", a, b)
	}
	sa, sb := serial.SinkReports(), parallel.SinkReports()
	if len(sa) != len(sb) {
		t.Fatalf("sink report counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Errorf("sink report %d differs:\n  %+v\n  %+v", i, sa[i], sb[i])
		}
	}
	na, nb := serial.NodeReports(), parallel.NodeReports()
	if len(na) != len(nb) {
		t.Fatalf("node report counts differ: %d vs %d", len(na), len(nb))
	}
	qa, qb := serial.SuspicionScores(), parallel.SuspicionScores()
	for i := range qa {
		if qa[i] != qb[i] {
			t.Errorf("suspicion ledger differs at node %d: %d vs %d", i, qa[i], qb[i])
		}
	}
}

// TestReplayAttackRejectedAndQuarantined: replayers re-sending their
// genuine reports long after the pass must be caught by freshness gating,
// accumulate suspicion, and land in quarantine — while the genuine crossing
// stays confirmed.
func TestReplayAttackRejectedAndQuarantined(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 405
	cfg.Defense = DefaultDefenseConfig()
	// Replay campaign well after the wake has swept through: stale by
	// construction once the collection windows of the pass have closed.
	replayers := adversary.ByzantineFraction(cfg.Grid.NumNodes(), 0.2,
		adversary.ByzantineNode{Behavior: adversary.Replay, Start: 300, Period: 20, Count: 5},
		cfg.Seed, int(SinkNode))
	cfg.Adversary = adversary.Plan{Byzantine: replayers}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddShip(crossGridShip(t, cfg, 10, 150))
	if err := rt.Run(450); err != nil {
		t.Fatal(err)
	}
	if len(rt.SinkReports()) == 0 {
		t.Fatal("defended run lost the genuine crossing")
	}
	if rt.RejectedReports() == 0 {
		t.Error("no replayed report was rejected")
	}
	quarantined := map[int]bool{}
	for _, id := range rt.QuarantinedNodes() {
		quarantined[id] = true
	}
	byz := map[int]bool{}
	for _, b := range replayers {
		byz[b.Node] = true
	}
	for id := range quarantined {
		if !byz[id] {
			t.Errorf("honest node %d was quarantined", id)
		}
	}
	// At least one persistent replayer (5 stale injections each, threshold
	// 3) must have crossed into quarantine.
	hit := false
	for id := range byz {
		if quarantined[id] {
			hit = true
		}
	}
	if !hit {
		t.Errorf("no replayer quarantined (suspicion: %v, rejected: %d)",
			rt.SuspicionScores(), rt.RejectedReports())
	}
	// Every stale sink confirmation would carry a MeanOnset far from the
	// pass; defended runs must not relay the replayed pattern.
	for _, s := range rt.SinkReports() {
		if s.MeanOnset > 300 {
			t.Errorf("stale confirmation reached the sink: %+v", s)
		}
	}
}

// TestDefenseDisabledMatchesBaseline: with the zero DefenseConfig and an
// empty adversary plan, the new plumbing must leave a clean run
// bit-identical to the pre-adversary protocol (the golden corpus pins
// that). Enabling the defenses on a clean run is NOT bit-identical — the
// atomic merge keeps the strongest window's onset instead of the earliest
// — but it must preserve every detection: same heads, same evaluation
// times, same correlation outcome, onsets within the merge's window-scale
// slack.
func TestDefenseDisabledMatchesBaseline(t *testing.T) {
	run := func(defense bool) []SinkReport {
		cfg := DefaultConfig()
		cfg.Seed = 102 // same seed as TestShipCrossingConfirmedAtSink
		if defense {
			cfg.Defense = DefaultDefenseConfig()
		}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.AddShip(crossGridShip(t, cfg, 10, 150))
		if err := rt.Run(400); err != nil {
			t.Fatal(err)
		}
		return rt.SinkReports()
	}
	off := run(false)
	on := run(true)
	if len(off) == 0 {
		t.Fatal("baseline run detected nothing")
	}
	if len(off) != len(on) {
		t.Fatalf("defenses changed a clean run: %d vs %d sink reports", len(off), len(on))
	}
	for i := range off {
		if off[i].Head != on[i].Head || off[i].Time != on[i].Time ||
			off[i].C != on[i].C || off[i].Reports != on[i].Reports {
			t.Errorf("clean-run sink report %d differs with defenses on:\n  off %+v\n   on %+v", i, off[i], on[i])
		}
		if d := math.Abs(off[i].MeanOnset - on[i].MeanOnset); d > 2 {
			t.Errorf("clean-run mean onset moved %.2fs with defenses on", d)
		}
	}
}
