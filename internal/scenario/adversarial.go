package scenario

import (
	"path/filepath"

	"github.com/sid-wsn/sid/internal/adversary"
)

// AdversarialCorpus returns the adversarial golden family: evasive
// intruders that stress the detector's physics assumptions, and byzantine /
// clock-spoof attacks paired defended vs undefended on identical seeds.
// Their results live under testdata/golden/adversarial and are pinned by
// TestAdversarialGoldenCorpus; refresh with
//
//	go run ./cmd/sidbench -exp scenarios -update
//
// (the scenarios runner covers both corpora). The geometry convention
// matches Corpus(): a 4×5 grid at 25 m spacing unless a scenario says
// otherwise, intruders entering south and sailing up between the columns.
func AdversarialCorpus() []Spec {
	// The byzantine pair shares one plan and seed so the golden files
	// document exactly what the defense changes: same attack, same sea,
	// same clocks — different outcome.
	byzPlan := adversary.Plan{
		Byzantine: adversary.ByzantineFraction(20, 0.2,
			adversary.ByzantineNode{
				Behavior: adversary.Fabricate,
				Start:    150, Period: 12, Count: 8, EnergyBase: 180,
			}, 901, 0),
	}
	replayPlan := adversary.Plan{
		Byzantine: adversary.ByzantineFraction(20, 0.2,
			adversary.ByzantineNode{
				Behavior: adversary.Replay,
				Start:    300, Period: 18, Count: 5,
			}, 902, 0),
	}
	spoofPlan := adversary.Plan{}
	for _, id := range adversary.SpoofNodes(20, 3, 903, 0) {
		spoofPlan.ClockSpoofs = append(spoofPlan.ClockSpoofs, adversary.ClockSpoof{
			Node: id, At: 40, SkewPPM: 12000, // ~1.3 s of error by the crossing
		})
	}
	return []Spec{
		{
			// An evasive intruder loitering below hull speed: at 3 knots the
			// wake-making resistance regime the detector banks on barely
			// exists. The golden pins how far the floor is — whether the
			// grid sees anything at all.
			Name: "adv-loiter-3kn", Duration: 500, Seed: 911,
			Ships: []ShipSpec{{
				Name: "loiterer", EnterAt: 40,
				Waypoints: []WaypointSpec{{62.5, -150, 3}, {62.5, 250, 3}},
			}},
		},
		{
			// Swell-matched drifting in a higher sea: the intruder creeps at
			// 2 kn through 0.6 m swell, hiding its wake inside the ambient
			// band. The anomaly detector's adaptive threshold is what is
			// under test.
			Name: "adv-drift-swell", Duration: 600, Seed: 912,
			Hs: 0.6, Tp: 5.5,
			Ships: []ShipSpec{{
				Name: "drifter", EnterAt: 40,
				Waypoints: []WaypointSpec{{62.5, -120, 2}, {62.5, 220, 2}},
			}},
		},
		{
			// A storm-sea crossing at speed: 1.1 m seas raise the ambient
			// energy an order of magnitude; the wake must still stand out
			// for a 14 kn crossing.
			Name: "adv-storm-crossing", Duration: 350, Seed: 913,
			Hs: 1.1, Tp: 6.5,
			Ships: []ShipSpec{{
				Name: "intruder", EnterAt: 85,
				Waypoints: []WaypointSpec{{62.5, -250, 14}, {62.5, 350, 14}},
			}},
		},
		{
			// 20% fabricating byzantine nodes polluting the genuine pass's
			// collection — undefended arm. The golden pins the damage.
			Name: "adv-byzantine-undefended", Duration: 400, Seed: 914,
			Adversary: byzPlan,
			Ships:     intruder10kn(),
		},
		{
			// Identical attack and seed, defenses on: trimmed evaluation
			// must recover the pass and the trim ledger must charge the
			// fabricators.
			Name: "adv-byzantine-defended", Duration: 400, Seed: 914,
			Adversary: byzPlan, Defense: true,
			Ships: intruder10kn(),
		},
		{
			// Post-pass replay campaign, defenses on: freshness gating must
			// reject the stale reports and quarantine the persistent
			// replayers while the genuine crossing stays confirmed.
			Name: "adv-replay-defended", Duration: 500, Seed: 917,
			Adversary: replayPlan, Defense: true,
			Ships: intruder10kn(),
		},
		{
			// Smoothly spoofed clocks on three nodes, defenses on: the
			// leave-one-out speed fit must keep the estimate near truth
			// even when a poisoned timestamp lands in the four-node pick.
			Name: "adv-clock-spoof-defended", Duration: 400, Seed: 916,
			Adversary: spoofPlan, Defense: true,
			Ships: intruder10kn(),
		},
	}
}

// AdversarialGoldenDir returns the adversarial family's golden directory
// under the main corpus dir.
func AdversarialGoldenDir(goldenDir string) string {
	return filepath.Join(goldenDir, "adversarial")
}
