package sid

import (
	"runtime"
	"strings"
	"testing"

	"github.com/sid-wsn/sid/internal/fault"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/source"
)

// TestConfigValidation is the single table covering every rejection path of
// Config.Validate — the unified validator the root facade delegates to. One
// case per rule, each asserting on a fragment of the error message so a
// rule can't silently swap for another.
func TestConfigValidation(t *testing.T) {
	push := func(rate, scale float64) source.Source {
		src, err := source.NewPush(rate, scale, DefaultConfig().Grid.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string // error substring
	}{
		{"grid rows", func(c *Config) { c.Grid.Rows = 0 }, "grid"},
		{"grid overflow", func(c *Config) { c.Grid.Rows, c.Grid.Cols = 1<<62+1, 4 }, "overflows"},
		{"Hs", func(c *Config) { c.Hs = 0 }, "Hs and Tp"},
		{"Tp", func(c *Config) { c.Tp = -1 }, "Hs and Tp"},
		{"DriftRadius", func(c *Config) { c.DriftRadius = -1 }, "DriftRadius"},
		{"detector M", func(c *Config) { c.Detect.M = 0 }, "M must be positive"},
		{"detector AnomalyThreshold", func(c *Config) { c.Detect.AnomalyThreshold = 1.5 }, "AnomalyThreshold"},
		{"source rate", func(c *Config) { c.Source = push(100, 1024) }, "source serves 100 Hz"},
		{"source scale", func(c *Config) { c.Source = push(50, 512) }, "at 512 counts/g"},
		{"CollectWindow", func(c *Config) { c.CollectWindow = 0 }, "CollectWindow"},
		{"SampleBatch", func(c *Config) { c.SampleBatch = 0 }, "SampleBatch"},
		{"DutyCycle low", func(c *Config) { c.DutyCycle = -0.1 }, "DutyCycle"},
		{"DutyCycle high", func(c *Config) { c.DutyCycle = 1.5 }, "DutyCycle"},
		{"Workers", func(c *Config) { c.Workers = -1 }, "Workers"},
		{"cluster CThreshold", func(c *Config) { c.Cluster.CThreshold = 2 }, "CThreshold"},
		{"cluster MinRows", func(c *Config) { c.Cluster.MinRows = 0 }, "MinRows"},
		{"cluster SweepThreshold", func(c *Config) { c.Cluster.SweepThreshold = 1.5 }, "SweepThreshold"},
		{"fault crash node", func(c *Config) {
			c.Faults.Crashes = []fault.Crash{{Node: 999, At: 10}}
		}, "outside"},
		{"fault negative time", func(c *Config) {
			c.Faults.Crashes = []fault.Crash{{Node: 1, At: -5}}
		}, "Crashes[0].At"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	t.Run("source node mismatch", func(t *testing.T) {
		src, err := source.TraceFromSamples(50, 1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Source = src // 0 node streams vs the grid's 20 nodes
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "node streams") {
			t.Errorf("source/grid mismatch not rejected: %v", err)
		}
	})

	t.Run("source skips sea checks", func(t *testing.T) {
		// With a source attached the sea-state parameters are unused and
		// must not be validated.
		cfg := DefaultConfig()
		src, err := source.TraceFromSamples(50, 1024,
			make([][]sensor.Sample, cfg.Grid.NumNodes()))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Source = src
		cfg.Hs, cfg.Tp, cfg.DriftRadius = 0, 0, -1
		if err := cfg.Validate(); err != nil {
			t.Errorf("replay config rejected for unused sea parameters: %v", err)
		}
	})

	t.Run("default valid", func(t *testing.T) {
		if err := DefaultConfig().Validate(); err != nil {
			t.Errorf("DefaultConfig invalid: %v", err)
		}
	})
}

// TestNewRuntimeValidatesBeforeBuilding: a bad detector parameter on a
// large grid is rejected before the source, the network or any detector is
// built, so the rejection costs next to nothing.
func TestNewRuntimeValidatesBeforeBuilding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Grid = geo.GridSpec{Rows: 120, Cols: 120, Spacing: 25}
	cfg.Detect.M = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewRuntime(cfg)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "M must be positive") {
		t.Fatalf("NewRuntime with M=0: err %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rejecting a 120x120 config allocated %d B, want < 1 MiB", alloc)
	}
}
