package sid

import (
	"reflect"
	"testing"

	"github.com/sid-wsn/sid/internal/obs"
)

// fleetTestConfig is a small, fast deployment for fleet sharding tests.
func fleetTestConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Grid.Rows = 3
	cfg.Grid.Cols = 3
	cfg.Seed = seed
	return cfg
}

// TestFleetMatchesStandaloneRuns pins the fleet's isolation contract: each
// deployment's results are identical to running it alone, and the merged
// snapshot is the per-field sum (counters) across the fleet.
func TestFleetMatchesStandaloneRuns(t *testing.T) {
	const dur = 30
	seeds := []int64{11, 22, 33}

	solo := make([]*Runtime, len(seeds))
	for i, seed := range seeds {
		rt, err := NewRuntime(fleetTestConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(dur); err != nil {
			t.Fatal(err)
		}
		solo[i] = rt
	}

	var fc FleetConfig
	for _, seed := range seeds {
		fc.Deployments = append(fc.Deployments, fleetTestConfig(seed))
	}
	fleet, err := NewFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Run(dur); err != nil {
		t.Fatal(err)
	}

	for i := range seeds {
		rt := fleet.Runtime(i)
		if !reflect.DeepEqual(rt.NodeReports(), solo[i].NodeReports()) {
			t.Errorf("deployment %d: fleet node reports differ from standalone run", i)
		}
		if !reflect.DeepEqual(rt.SinkReports(), solo[i].SinkReports()) {
			t.Errorf("deployment %d: fleet sink reports differ from standalone run", i)
		}
		want := solo[i].Observability().Registry().Snapshot()
		got := rt.Observability().Registry().Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("deployment %d: fleet registry snapshot differs from standalone run", i)
		}
	}

	merged := fleet.Snapshot()
	wantFormed := int64(0)
	for _, rt := range solo {
		wantFormed += int64(rt.ClustersFormed())
	}
	for _, c := range merged.Counters {
		if c.Name == "sid.clusters_formed" && c.Value != wantFormed {
			t.Errorf("merged sid.clusters_formed = %d, want %d", c.Value, wantFormed)
		}
	}
}

// TestFleetDeterministicAcrossWorkers pins that the fleet's outer
// parallelism knob changes nothing but wall-clock time.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	const dur = 30
	run := func(workers int) ([]NodeReport, obs.Snapshot) {
		t.Helper()
		fc := FleetConfig{Workers: workers}
		for _, seed := range []int64{5, 6, 7, 8} {
			fc.Deployments = append(fc.Deployments, fleetTestConfig(seed))
		}
		fleet, err := NewFleet(fc)
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.Run(dur); err != nil {
			t.Fatal(err)
		}
		var reports []NodeReport
		for i := 0; i < fleet.Size(); i++ {
			reports = append(reports, fleet.Runtime(i).NodeReports()...)
		}
		return reports, fleet.Snapshot()
	}
	r1, s1 := run(1)
	rN, sN := run(0)
	if !reflect.DeepEqual(r1, rN) {
		t.Error("fleet node reports differ between Workers=1 and Workers=0")
	}
	if !reflect.DeepEqual(s1, sN) {
		t.Error("fleet merged snapshot differs between Workers=1 and Workers=0")
	}
}

// TestFleetConfigErrors covers fleet-level validation.
func TestFleetConfigErrors(t *testing.T) {
	if _, err := NewFleet(FleetConfig{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewFleet(FleetConfig{Deployments: []Config{fleetTestConfig(1)}, Workers: -1}); err == nil {
		t.Error("negative fleet Workers accepted")
	}
	bad := fleetTestConfig(1)
	bad.CollectWindow = 0
	if _, err := NewFleet(FleetConfig{Deployments: []Config{bad}}); err == nil {
		t.Error("invalid deployment config accepted")
	}
}
