package adversary

import (
	"strings"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sim"
	"github.com/sid-wsn/sid/internal/wsn"
)

func testNet(t *testing.T, seed int64) (*wsn.Network, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler(seed)
	positions := geo.GridSpec{Rows: 2, Cols: 3, Spacing: 25}.Positions()
	radio := wsn.DefaultRadioConfig()
	radio.LossProb = 0
	net, err := wsn.NewNetwork(sched, positions, radio)
	if err != nil {
		t.Fatal(err)
	}
	return net, sched
}

// TestPlanValidate covers every rejection path and checks the message names
// the offending entry and field.
func TestPlanValidate(t *testing.T) {
	const n = 6
	cases := []struct {
		name string
		plan Plan
		want string // substring of the error
	}{
		{"byz node high", Plan{Byzantine: []ByzantineNode{{Node: 6, EnergyBase: 1}}}, "Byzantine[0].Node"},
		{"byz node negative", Plan{Byzantine: []ByzantineNode{{Node: -1, EnergyBase: 1}}}, "Byzantine[0].Node"},
		{"byz behavior", Plan{Byzantine: []ByzantineNode{{Node: 1, Behavior: 7, EnergyBase: 1}}}, "Byzantine[0].Behavior"},
		{"byz start", Plan{Byzantine: []ByzantineNode{{Node: 1, Start: -1, EnergyBase: 1}}}, "Byzantine[0].Start"},
		{"byz period", Plan{Byzantine: []ByzantineNode{{Node: 1, Period: -2, EnergyBase: 1}}}, "Byzantine[0].Period"},
		{"byz count", Plan{Byzantine: []ByzantineNode{{Node: 1, Count: -1, EnergyBase: 1}}}, "Byzantine[0].Count"},
		{"byz energy", Plan{Byzantine: []ByzantineNode{{Node: 1, Behavior: Fabricate}}}, "Byzantine[0].EnergyBase"},
		{"spoof node", Plan{ClockSpoofs: []ClockSpoof{{Node: 9, SkewPPM: 100}}}, "ClockSpoofs[0].Node"},
		{"spoof at", Plan{ClockSpoofs: []ClockSpoof{{Node: 1, At: -1, SkewPPM: 100}}}, "ClockSpoofs[0].At"},
		{"spoof zero", Plan{ClockSpoofs: []ClockSpoof{{Node: 1, At: 1}}}, "ClockSpoofs[0].SkewPPM"},
		{"more spoofs than nodes", Plan{ClockSpoofs: make([]ClockSpoof, n+1)}, "ClockSpoofs has 7 entries, more than the 6 nodes"},
		{"second entry", Plan{Byzantine: []ByzantineNode{
			{Node: 1, EnergyBase: 1}, {Node: 99, EnergyBase: 1},
		}}, "Byzantine[1].Node"},
		{"byz count bomb", Plan{Byzantine: []ByzantineNode{{Node: 1, Count: 1_000_000, EnergyBase: 1}}}, "Byzantine[0].Count"},
		// A campaign with Count 0 schedules one injection.
		{"byz total", Plan{Byzantine: []ByzantineNode{
			{Node: 1, Count: MaxInjections, EnergyBase: 1}, {Node: 2, EnergyBase: 1},
		}}, "Byzantine[1].Count"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate(n)
			if err == nil {
				t.Fatalf("expected validation error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not name %q", err, c.want)
			}
		})
	}
	replay := Plan{Byzantine: []ByzantineNode{{Node: 2, Behavior: Replay}}}
	if err := replay.Validate(n); err != nil {
		t.Errorf("replay without EnergyBase should be valid: %v", err)
	}
	full := Plan{Byzantine: []ByzantineNode{{Node: 1, Count: MaxInjections - 1, EnergyBase: 1}, {Node: 2, Behavior: Replay}}}
	if err := full.Validate(n); err != nil {
		t.Errorf("a plan of exactly MaxInjections should be valid: %v", err)
	}
	if !(Plan{}).Empty() {
		t.Error("zero plan should be empty")
	}
	if (Plan{ClockSpoofs: []ClockSpoof{{Node: 1, SkewPPM: 1}}}).Empty() {
		t.Error("plan with a spoof is not empty")
	}
}

// TestClockSpoofSmooth checks that an applied spoof changes the clock rate
// without any step: the local reading is continuous at the spoof time and
// diverges linearly afterwards.
func TestClockSpoofSmooth(t *testing.T) {
	net, sched := testNet(t, 7)
	const at, skew = 10.0, 10000.0 // 1%: 1 s of error per 100 s
	node := net.MustNode(3)
	before := node.Clock
	plan := Plan{ClockSpoofs: []ClockSpoof{{Node: 3, At: at, SkewPPM: skew}}}
	if err := ApplyClocks(plan, net); err != nil {
		t.Fatal(err)
	}
	sched.Run(at + 1)
	after := node.Clock
	// Continuity at the spoof instant.
	if got, want := after.Local(at), before.Local(at); abs(got-want) > 1e-9 {
		t.Errorf("Local(%g) stepped: %g vs %g", at, got, want)
	}
	// Divergence afterwards at the skew rate.
	dt := 100.0
	gotDiv := (after.Local(at+dt) - before.Local(at+dt))
	wantDiv := skew * 1e-6 * dt
	if abs(gotDiv-wantDiv) > 1e-9 {
		t.Errorf("divergence after %g s: got %g, want %g", dt, gotDiv, wantDiv)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestByzantineFractionDeterministic pins the selection contract: same
// arguments, same victims; the sink is never compromised; and the victim
// set differs from fault.CrashFraction's on the same seed (independent
// salts), so crash and compromise experiments do not collide by design.
func TestByzantineFractionDeterministic(t *testing.T) {
	tmpl := ByzantineNode{Behavior: Fabricate, Start: 100, Period: 10, Count: 3, EnergyBase: 50}
	a := ByzantineFraction(36, 0.2, tmpl, 42, 0)
	b := ByzantineFraction(36, 0.2, tmpl, 42, 0)
	if len(a) != 7 {
		t.Fatalf("20%% of 36 = 7 victims, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection not deterministic: %+v vs %+v", a[i], b[i])
		}
		if a[i].Node == 0 {
			t.Error("protected node 0 was compromised")
		}
		if a[i].Behavior != Fabricate || a[i].EnergyBase != 50 {
			t.Error("template fields not copied")
		}
	}
	c := ByzantineFraction(36, 0.2, tmpl, 43, 0)
	same := true
	for i := range a {
		if a[i].Node != c[i].Node {
			same = false
		}
	}
	if same {
		t.Error("different seeds picked identical victim sets")
	}
	if got := ByzantineFraction(36, 0, tmpl, 42); len(got) != 0 {
		t.Errorf("zero fraction should pick no one, got %v", got)
	}
	spoof := SpoofNodes(36, 3, 42, 0)
	if len(spoof) != 3 {
		t.Fatalf("want 3 spoof victims, got %d", len(spoof))
	}
	for _, id := range spoof {
		if id == 0 {
			t.Error("protected node 0 was spoofed")
		}
	}
}
