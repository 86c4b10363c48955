package main

import (
	"reflect"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/wake"
)

// The traced run's hooks must be transparent: a field run with the timing
// decorator and the message-handler wrappers produces exactly the reports
// of the same field run without them, at any worker count, and the
// decorator exposes exactly the optional source interfaces of what it
// wraps.

type reports struct {
	nodes []sid.NodeReport
	sinks []sid.SinkReport
}

func runField(t *testing.T, cfg sid.Config, ship *wake.Ship, dur float64, sp *spans) reports {
	t.Helper()
	rt, err := sid.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ship != nil {
		rt.AddShip(ship)
	}
	if sp != nil {
		hookMessages(rt, sp)
	}
	if err := rt.Run(dur); err != nil {
		t.Fatal(err)
	}
	return reports{nodes: rt.NodeReports(), sinks: rt.SinkReports()}
}

// smallGrid is the large-field configuration on a 10×10 field, with the
// full history kept so whole report streams compare.
func smallGrid(workers int) sid.Config {
	cfg := gridConfig(gridInputs{fieldSeed: 11})
	cfg.Grid = geo.GridSpec{Rows: 10, Cols: 10, Spacing: 25}
	cfg.HistoryWindow = 0
	cfg.Workers = workers
	return cfg
}

func TestHooksTransparentSynthetic(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := smallGrid(workers)
		ship, err := wake.CrossingShip(cfg.Grid.Center(), 10, 90, 0, 20, 12)
		if err != nil {
			t.Fatal(err)
		}
		plain := runField(t, cfg, ship, 120, nil)
		if len(plain.nodes) == 0 {
			t.Fatal("the crossing produced no node reports; the comparison would be vacuous")
		}

		syn, err := source.NewSynthetic(source.SyntheticConfig{
			Positions: cfg.Grid.Positions(), Hs: cfg.Hs, Tp: cfg.Tp,
			DriftRadius: cfg.DriftRadius, Seed: cfg.Seed, Synthesis: cfg.Synthesis,
		})
		if err != nil {
			t.Fatal(err)
		}
		sp := newSpans(cfg.Grid.NumNodes(), func(node int) bool { return node%7 == 0 })
		timed := timeSource(syn, sp)
		if _, ok := timed.(source.BatchPreparer); !ok {
			t.Error("decorated synthetic source hides BatchPreparer")
		}
		if _, ok := timed.(source.Appender); !ok {
			t.Error("decorated synthetic source hides Appender")
		}
		cfg.Source = timed
		hooked := runField(t, cfg, ship, 120, sp)
		if !reflect.DeepEqual(plain, hooked) {
			t.Errorf("workers=%d: hooked run differs: %d/%d node reports, %d/%d sink reports",
				workers, len(hooked.nodes), len(plain.nodes), len(hooked.sinks), len(plain.sinks))
		}
		if sp.blocks == 0 || sp.prepares == 0 || sp.msgs == 0 {
			t.Errorf("workers=%d: hooks recorded nothing: %d blocks, %d prepares, %d messages",
				workers, sp.blocks, sp.prepares, sp.msgs)
		}
	}
}

// traceSpan covers the default 90 s collection window after the crossing.
const traceSpan = 200

func TestHooksTransparentTrace(t *testing.T) {
	cfg := sid.DefaultConfig()
	cfg.Seed = 7
	ship, err := wake.CrossingShip(cfg.Grid.Center(), 10, 90, 0, 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	rec := &source.Recording{}
	cfg.RecordTo = rec
	orig := runField(t, cfg, ship, traceSpan, nil)
	if len(orig.nodes) == 0 || len(orig.sinks) == 0 {
		t.Fatalf("the recording run produced %d node and %d sink reports; the comparison would be vacuous",
			len(orig.nodes), len(orig.sinks))
	}
	cfg.RecordTo = nil
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		replay := func(hooked bool) reports {
			src, err := rec.Source()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Source = src
			if !hooked {
				return runField(t, cfg, nil, traceSpan, nil)
			}
			sp := newSpans(src.NumNodes(), nil)
			timed := timeSource(src, sp)
			if _, ok := timed.(source.BatchPreparer); ok {
				t.Error("decorated trace source claims BatchPreparer")
			}
			if _, ok := timed.(source.Appender); ok {
				t.Error("decorated trace source claims Appender")
			}
			cfg.Source = timed
			return runField(t, cfg, nil, traceSpan, sp)
		}
		plain, hooked := replay(false), replay(true)
		if !reflect.DeepEqual(plain, orig) {
			t.Errorf("workers=%d: plain replay differs from the recording run", workers)
		}
		if !reflect.DeepEqual(hooked, plain) {
			t.Errorf("workers=%d: hooked replay differs: %d/%d node reports, %d/%d sink reports",
				workers, len(hooked.nodes), len(plain.nodes), len(hooked.sinks), len(plain.sinks))
		}
	}
}
