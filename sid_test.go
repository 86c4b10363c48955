package sid

import (
	"math"
	"testing"
)

func TestDeploymentEndToEnd(t *testing.T) {
	cfg := DefaultDeployment()
	cfg.Seed = 42
	dep, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.AddIntruder(Intruder{SpeedKnots: 10, CrossAt: 150}); err != nil {
		t.Fatal(err)
	}
	if err := dep.Run(400); err != nil {
		t.Fatal(err)
	}
	dets := dep.Detections()
	if len(dets) == 0 {
		t.Fatalf("no detection (stats %+v)", dep.Stats())
	}
	d := dets[0]
	if d.C < cfg.CThreshold {
		t.Errorf("C = %v below threshold", d.C)
	}
	if d.HasSpeed {
		if math.Abs(d.SpeedKnots-10)/10 > 0.3 {
			t.Errorf("speed estimate %v kn, actual 10", d.SpeedKnots)
		}
	}
	st := dep.Stats()
	if st.FramesSent == 0 {
		t.Error("no radio activity")
	}
}

func TestDeploymentQuietSeaSilent(t *testing.T) {
	cfg := DefaultDeployment()
	cfg.Seed = 43
	dep, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Run(300); err != nil {
		t.Fatal(err)
	}
	if n := len(dep.Detections()); n != 0 {
		t.Errorf("quiet sea produced %d detections", n)
	}
}

func TestDeploymentValidation(t *testing.T) {
	cfg := DefaultDeployment()
	cfg.Rows = 0
	if _, err := NewDeployment(cfg); err == nil {
		t.Error("expected error for zero rows")
	}
	// Validate delegates to the internal runtime validator — same verdicts
	// as NewDeployment, without building anything. The per-rule rejection
	// table lives in internal/sid/config_test.go; this only pins the
	// delegation.
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a config NewDeployment rejects")
	}
	if err := DefaultDeployment().Validate(); err != nil {
		t.Errorf("Validate rejected the default deployment: %v", err)
	}
	noM := DefaultDeployment()
	noM.ThresholdM = 0
	if err := noM.Validate(); err == nil {
		t.Error("Validate accepted ThresholdM = 0")
	}
	// A cluster threshold no correlation can reach fails at construction,
	// not at every later evaluation.
	badC := DefaultDeployment()
	badC.CThreshold = 2
	if err := badC.Validate(); err == nil {
		t.Error("Validate accepted CThreshold = 2")
	}
	if _, err := NewDeployment(badC); err == nil {
		t.Error("NewDeployment accepted CThreshold = 2")
	}
	dep, err := NewDeployment(DefaultDeployment())
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.AddIntruder(Intruder{SpeedKnots: 0}); err == nil {
		t.Error("expected error for zero-speed intruder")
	}
}

func TestIntruderDefaults(t *testing.T) {
	dep, err := NewDeployment(DefaultDeployment())
	if err != nil {
		t.Fatal(err)
	}
	// Zero heading defaults to a perpendicular crossing; zero length to 12 m.
	if err := dep.AddIntruder(Intruder{SpeedKnots: 8, CrossAt: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDeploymentSpectralSynthesis: the facade's SpectralSynthesis knob must
// run end-to-end and still detect the intruder. The count-level equivalence
// against the phasor path is pinned in internal/source and
// internal/scenario; here we only require the public wiring to work.
func TestDeploymentSpectralSynthesis(t *testing.T) {
	cfg := DefaultDeployment()
	cfg.Seed = 42
	cfg.SpectralSynthesis = true
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.AddIntruder(Intruder{SpeedKnots: 10, CrossAt: 150}); err != nil {
		t.Fatal(err)
	}
	if err := dep.Run(400); err != nil {
		t.Fatal(err)
	}
	if len(dep.Detections()) == 0 {
		t.Fatalf("spectral deployment missed the intruder (stats %+v)", dep.Stats())
	}
}

// TestDeploymentAdversaryDefense: the facade's Adversary and Defense knobs
// must wire through to the internal runtime — a replay campaign against a
// defended deployment is rejected and quarantined while the genuine
// crossing stays confirmed. The attack/defense behavior itself is pinned
// in internal/sid and internal/scenario; here we only require the public
// wiring to work.
func TestDeploymentAdversaryDefense(t *testing.T) {
	cfg := DefaultDeployment()
	cfg.Seed = 42
	cfg.Defense = true
	cfg.Adversary = AdversaryPlan{
		Byzantine: []ByzantineNode{
			{Node: 3, Replay: true, Start: 300, Period: 20, Count: 5},
			{Node: 7, Replay: true, Start: 300, Period: 20, Count: 5},
		},
		ClockSpoofs: []ClockSpoof{{Node: 11, At: 60, SkewPPM: 8000}},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.AddIntruder(Intruder{SpeedKnots: 10, CrossAt: 150}); err != nil {
		t.Fatal(err)
	}
	if err := dep.Run(450); err != nil {
		t.Fatal(err)
	}
	if len(dep.Detections()) == 0 {
		t.Fatal("defended deployment lost the genuine crossing")
	}
	rt := dep.Runtime()
	if rt.InjectedReports() == 0 {
		t.Error("adversary plan did not inject")
	}
	if rt.RejectedReports() == 0 {
		t.Error("defense rejected nothing")
	}
	// A plan naming a node outside the grid must be rejected up front.
	bad := cfg
	bad.Adversary = AdversaryPlan{Byzantine: []ByzantineNode{{Node: 99, Start: 1, Period: 1, Count: 1, EnergyBase: 10}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range byzantine node accepted")
	}
}
