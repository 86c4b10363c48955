package main

import (
	"math"
	"reflect"
	"testing"

	"github.com/sid-wsn/sid/internal/scenario"
)

// Every replay pool trial sits in the loss stratum of its row, and a trial
// number always gives the same trial.
func TestReplayPoolStrata(t *testing.T) {
	for r, row := range replayPool {
		lo, hi := 0.20+0.10*float64(r)/replayRecordings, 0.20+0.10*float64(r+1)/replayRecordings
		for _, k := range row {
			spec := replayTrial(k)
			if k%replayRecordings != int64(r) || spec.PacketLoss < lo || spec.PacketLoss >= hi {
				t.Errorf("trial %d in row %d has loss %.3f, want [%.3f, %.3f)", k, r, spec.PacketLoss, lo, hi)
			}
			if !reflect.DeepEqual(spec, replayTrial(k)) {
				t.Errorf("trial %d is not a pure function of its number", k)
			}
		}
	}
}

func TestSweepDist(t *testing.T) {
	sr := scenario.ShipResult{SweepStart: 100, SweepEnd: 150, CoveredNodes: 20}
	for _, c := range []struct{ t, want float64 }{
		{120, 0}, {100, 0}, {150, 0}, {60, 40}, {190, 40},
	} {
		if got := sweepDist(sr, c.t); got != c.want {
			t.Errorf("sweepDist(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if got := sweepDist(scenario.ShipResult{}, 120); !math.IsInf(got, 1) {
		t.Errorf("a vessel that covers no node: got %g, want +Inf", got)
	}
}
