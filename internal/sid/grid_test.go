package sid

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/wake"
)

// largeFieldConfig is the large-field configuration that sidperf's
// grid_100x100 workload runs at 100×100, here at rows×cols: spectral
// synthesis behind the spatial wake index, duty-cycled sentinels, two-level
// report collection and a bounded detection history.
func largeFieldConfig(rows, cols int) Config {
	cfg := DefaultConfig()
	cfg.Grid = geo.GridSpec{Rows: rows, Cols: cols, Spacing: 25}
	cfg.Seed = 11
	cfg.Synthesis = source.SynthSpectral
	cfg.DutyCycle = 0.2
	cfg.CollectWindow = 30
	cfg.HistoryWindow = 60
	cfg.Hierarchy = DefaultHierarchyConfig()
	cfg.Hierarchy.Enabled = true
	return cfg
}

// TestGridSmoke runs the large-field configuration downscaled to 8×8 with
// every scaling feature engaged at once and requires the crossing to be
// detected with all of them active. The full-size 100×100 field is
// sidperf's grid_100x100 workload; this keeps the feature interaction under
// the regular test and race targets.
func TestGridSmoke(t *testing.T) {
	cfg := largeFieldConfig(8, 8)
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddShip(crossGridShip(t, cfg, 10, 30))
	if err := rt.Run(60); err != nil {
		t.Fatal(err)
	}
	if len(rt.NodeReports()) == 0 {
		t.Fatal("no node detections with index+hierarchy+bounded history engaged")
	}
	syn, ok := rt.Source().(*source.Synthetic)
	if !ok {
		t.Fatalf("source is %T, not the synthetic field", rt.Source())
	}
	if st := syn.SynthesisStats(); st.IndexNodesOffered == 0 {
		t.Fatal("spatial index never engaged")
	}
	if rt.PeakNodeBytes() <= 0 {
		t.Fatal("peak node bytes not tracked")
	}
	if g := rt.Observability().Registry().Gauge("sid.subheads").Value(); g < 1 {
		t.Fatalf("no sub-cluster heads elected: gauge %g", g)
	}
}

// TestGridIndexParity runs the large-field configuration on 12×12 three
// ways: indexed at Workers=1, unindexed (DisableIndex) at Workers=1 and
// indexed at Workers=2. The spatial wake index and the worker fan-out must
// change nothing the runtime reports: node reports, sink reports and every
// cluster evaluation are identical across the three. History is unbounded
// so complete histories are compared, not surviving tails.
func TestGridIndexParity(t *testing.T) {
	run := func(disableIndex bool, workers int) *Runtime {
		t.Helper()
		cfg := largeFieldConfig(12, 12)
		cfg.Seed = 7
		cfg.HistoryWindow = 0
		cfg.Workers = workers
		src, err := source.NewSynthetic(source.SyntheticConfig{
			Positions:    cfg.Grid.Positions(),
			Hs:           cfg.Hs,
			Tp:           cfg.Tp,
			DriftRadius:  cfg.DriftRadius,
			Seed:         cfg.Seed,
			Synthesis:    cfg.Synthesis,
			DisableIndex: disableIndex,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Source = src
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The intruder geometry of sidperf's grid workload: a 10 kn
		// crossing through the field's center.
		ship, err := wake.CrossingShip(cfg.Grid.Center(), 10, 90, 0, 30, 12)
		if err != nil {
			t.Fatal(err)
		}
		rt.AddShip(ship)
		if err := rt.Run(90); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	ref := run(false, 1)
	if len(ref.NodeReports()) == 0 || len(ref.SinkReports()) == 0 || len(ref.Evaluations()) == 0 {
		t.Fatalf("crossing gave %d node reports, %d sink reports, %d evaluations; parity would be vacuous",
			len(ref.NodeReports()), len(ref.SinkReports()), len(ref.Evaluations()))
	}
	for _, c := range []struct {
		name string
		rt   *Runtime
	}{
		{"unindexed", run(true, 1)},
		{"workers=2", run(false, 2)},
	} {
		if !reflect.DeepEqual(ref.NodeReports(), c.rt.NodeReports()) {
			t.Errorf("%s: node reports differ from the indexed Workers=1 run", c.name)
		}
		if !reflect.DeepEqual(ref.SinkReports(), c.rt.SinkReports()) {
			t.Errorf("%s: sink reports differ from the indexed Workers=1 run", c.name)
		}
		want, got := ref.Evaluations(), c.rt.Evaluations()
		if len(want) != len(got) {
			t.Errorf("%s: %d evaluations, want %d", c.name, len(got), len(want))
			continue
		}
		// Evaluation.Err is an error value; compare via message to keep
		// DeepEqual meaningful.
		for i := range got {
			a, b := want[i], got[i]
			if fmt.Sprint(a.Err) != fmt.Sprint(b.Err) {
				t.Errorf("%s: evaluation %d error %v, want %v", c.name, i, b.Err, a.Err)
			}
			a.Err, b.Err = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: evaluation %d differs from the indexed Workers=1 run", c.name, i)
			}
		}
	}
}
