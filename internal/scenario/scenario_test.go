package scenario

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func corpusSpec(t *testing.T, name string) Spec {
	t.Helper()
	for _, s := range Corpus() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no corpus scenario %q", name)
	return Spec{}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Run(Spec{Duration: 100}); err == nil {
		t.Error("expected error for unnamed spec")
	}
	if _, err := Run(Spec{Name: "x"}); err == nil {
		t.Error("expected error for zero duration")
	}
	bad := Spec{Name: "x", Duration: 100, Ships: []ShipSpec{{
		Name: "s", Waypoints: []WaypointSpec{{0, 0, 10}},
	}}}
	if _, err := Run(bad); err == nil {
		t.Error("expected error for single-waypoint ship")
	}
}

func TestTruthMatchesSpec(t *testing.T) {
	spec := corpusSpec(t, "single-10kn")
	cfg, err := spec.compile()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := spec.maneuvers()
	if err != nil {
		t.Fatal(err)
	}
	tr := truth(spec, cfg, ms[0])
	if math.Abs(tr.TrueSpeedKn-10) > 1e-9 {
		t.Errorf("TrueSpeedKn = %v, want 10", tr.TrueSpeedKn)
	}
	if math.Abs(tr.TrueHeadingDeg-90) > 1e-9 {
		t.Errorf("TrueHeadingDeg = %v, want 90", tr.TrueHeadingDeg)
	}
	if tr.CoveredNodes != 20 {
		t.Errorf("CoveredNodes = %d, want 20 (ship crosses the whole grid)", tr.CoveredNodes)
	}
	if tr.SweepStart >= tr.SweepEnd {
		t.Errorf("sweep window [%v, %v] not increasing", tr.SweepStart, tr.SweepEnd)
	}
	if tr.SweepStart < spec.Ships[0].EnterAt {
		t.Errorf("sweep starts %v, before the ship enters at %v", tr.SweepStart, spec.Ships[0].EnterAt)
	}
}

// TestSpacingBandsFollowGrid: a head bands its reports at the deployment's
// own distance D. On a 4×5 grid at 15 m, a 10 kn crossing between the
// middle columns confirms on these seeds; banded at the paper's 25 m
// instead, the same reports fold into too few rows and none confirms.
func TestSpacingBandsFollowGrid(t *testing.T) {
	for _, seed := range []int64{303, 304, 306} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			res, err := Run(Spec{
				Name: "spacing-15m", Rows: 4, Cols: 5, SpacingM: 15, Duration: 300, Seed: seed,
				Ships: []ShipSpec{{
					Name: "intruder", EnterAt: 85,
					Waypoints: []WaypointSpec{{37.5, -250, 10}, {37.5, 350, 10}},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if sh := res.Ships[0]; !sh.Detected || !sh.HasSpeed {
				t.Errorf("detected=%v confirms=%d speed=%v, want a confirmed crossing with a speed estimate",
					sh.Detected, sh.Confirms, sh.HasSpeed)
			}
			if res.FalseConfirms != 0 {
				t.Errorf("%d false confirmations", res.FalseConfirms)
			}
		})
	}
}

// TestTwoCrossingDeterministicAndAttributed is the engine's core contract:
// the two-ship crossing scenario must produce bit-identical results for any
// worker count, and the per-ship scoring must attribute a confirmation to
// BOTH vessels with no false confirms.
func TestTwoCrossingDeterministicAndAttributed(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run is slow")
	}
	spec := corpusSpec(t, "two-crossing")
	spec.Workers = 1
	res1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 3
	res3, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res3) {
		t.Errorf("results differ between Workers=1 and Workers=3:\n%+v\nvs\n%+v", res1, res3)
	}
	if res1.FalseConfirms != 0 {
		t.Errorf("FalseConfirms = %d, want 0", res1.FalseConfirms)
	}
	if len(res1.Ships) != 2 {
		t.Fatalf("got %d ship results, want 2", len(res1.Ships))
	}
	for _, sh := range res1.Ships {
		if !sh.Detected || sh.Confirms < 1 {
			t.Errorf("ship %q: detected=%v confirms=%d, want a confirmed detection",
				sh.Name, sh.Detected, sh.Confirms)
		}
		if !sh.HasSpeed {
			t.Errorf("ship %q: no speed estimate", sh.Name)
			continue
		}
		if sh.SpeedErrFrac > 0.5 {
			t.Errorf("ship %q: speed estimate %v kn vs true %v kn (err %.0f%%)",
				sh.Name, sh.SpeedKn, sh.TrueSpeedKn, 100*sh.SpeedErrFrac)
		}
	}
}
