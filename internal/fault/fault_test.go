package fault

import (
	"math"
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

// TestPlanValidation walks every rejection path and pins the diagnostic:
// each message must carry the offending slice, entry index and field name
// so a rejected hand-written plan is correctable on sight. The network has
// 6 nodes (2×3 grid).
func TestPlanValidation(t *testing.T) {
	net, _ := testNet(t, 1)
	cases := []struct {
		name string
		plan Plan
		want string // substring the error must contain
	}{
		{"crash node too high", Plan{Crashes: []Crash{{Node: 99, At: 1}}}, "Crashes[0].Node = 99"},
		{"crash node negative", Plan{Crashes: []Crash{{Node: 0, At: 1}, {Node: -1, At: 1}}}, "Crashes[1].Node = -1"},
		{"crash negative time", Plan{Crashes: []Crash{{Node: 0, At: -1}}}, "Crashes[0].At = -1"},
		{"depletion node out of range", Plan{Depletions: []Depletion{{Node: -1, At: 1}}}, "Depletions[0].Node = -1"},
		{"depletion negative time", Plan{Depletions: []Depletion{{Node: 2, At: 1}, {Node: 3, At: -0.5}}}, "Depletions[1].At = -0.5"},
		{"clock step node out of range", Plan{ClockSteps: []ClockStep{{Node: 6, At: 1}}}, "ClockSteps[0].Node = 6"},
		{"clock step negative time", Plan{ClockSteps: []ClockStep{{Node: 1, At: -2}}}, "ClockSteps[0].At = -2"},
		// Six nodes: a seventh entry in any list is refused before the
		// entries themselves are read.
		{"more crashes than nodes", Plan{Crashes: make([]Crash, 7)}, "Crashes has 7 entries, more than the 6 nodes"},
		{"more depletions than nodes", Plan{Depletions: make([]Depletion, 7)}, "Depletions has 7 entries"},
		{"more clock steps than nodes", Plan{ClockSteps: make([]ClockStep, 7)}, "ClockSteps has 7 entries"},
		{"burst zero good sojourn", Plan{Burst: &BurstLoss{MeanGoodS: 0, MeanBadS: 1}}, "Burst.MeanGoodS = 0"},
		{"burst zero bad sojourn", Plan{Burst: &BurstLoss{MeanGoodS: 1, MeanBadS: 0}}, "Burst.MeanBadS = 0"},
		{"burst good loss at one", Plan{Burst: &BurstLoss{MeanGoodS: 1, MeanBadS: 1, LossGood: 1.0}}, "Burst.LossGood = 1"},
		{"burst good loss negative", Plan{Burst: &BurstLoss{MeanGoodS: 1, MeanBadS: 1, LossGood: -0.1}}, "Burst.LossGood = -0.1"},
		{"burst bad loss above one", Plan{Burst: &BurstLoss{MeanGoodS: 1, MeanBadS: 1, LossBad: 1.5}}, "Burst.LossBad = 1.5"},
		{"burst bad loss negative", Plan{Burst: &BurstLoss{MeanGoodS: 1, MeanBadS: 1, LossBad: -1}}, "Burst.LossBad = -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Apply(tc.plan, net)
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the offending field (want substring %q)", err, tc.want)
			}
		})
	}
	if !(Plan{}).Empty() {
		t.Error("zero plan should be empty")
	}
	if err := Apply(Plan{}, net); err != nil {
		t.Errorf("empty plan: %v", err)
	}
	// Boundary values that must be accepted.
	good := Plan{
		Crashes:    []Crash{{Node: 5, At: 0}},
		Depletions: []Depletion{{Node: 0, At: 0}},
		ClockSteps: []ClockStep{{Node: 0, At: 0, Offset: -3}},
		Burst:      &BurstLoss{MeanGoodS: 1, MeanBadS: 1, LossGood: 0, LossBad: 1},
	}
	if err := good.Validate(net.NumNodes()); err != nil {
		t.Errorf("boundary plan rejected: %v", err)
	}
}

func TestCrashAndRevive(t *testing.T) {
	net, sched := testNet(t, 2)
	plan := Plan{Crashes: []Crash{{Node: 3, At: 1.0, ReviveAt: 2.0}}}
	if err := Apply(plan, net); err != nil {
		t.Fatal(err)
	}
	probe := func(at float64, wantAlive bool) {
		if err := sched.Schedule(at, func() {
			if got := net.MustNode(3).Alive(); got != wantAlive {
				t.Errorf("t=%g: alive=%v, want %v", at, got, wantAlive)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	probe(0.5, true)
	probe(1.5, false)
	probe(2.5, true)
	sched.RunAll()
}

func TestDepletionKillsBatteryNode(t *testing.T) {
	net, sched := testNet(t, 3)
	b, err := wsn.NewBattery(10)
	if err != nil {
		t.Fatal(err)
	}
	net.MustNode(2).Battery = b
	plan := Plan{Depletions: []Depletion{{Node: 2, At: 1.0}, {Node: 4, At: 1.0}}}
	if err := Apply(plan, net); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if !b.Empty() {
		t.Errorf("battery remaining %g after depletion", b.Remaining())
	}
	if net.MustNode(2).Alive() {
		t.Error("depleted battery node still alive")
	}
	if net.MustNode(4).Alive() {
		t.Error("depleted batteryless node still alive")
	}
	// A revive cannot resurrect an empty battery.
	net.MustNode(2).Revive()
	if net.MustNode(2).Alive() {
		t.Error("revive resurrected a node with an empty battery")
	}
}

func TestClockStepShiftsLocalTime(t *testing.T) {
	net, sched := testNet(t, 4)
	before := net.MustNode(1).Clock.Local(5.0)
	plan := Plan{ClockSteps: []ClockStep{{Node: 1, At: 1.0, Offset: 0.25}}}
	if err := Apply(plan, net); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	after := net.MustNode(1).Clock.Local(5.0)
	if math.Abs((after-before)-0.25) > 1e-12 {
		t.Errorf("clock step moved local time by %g, want 0.25", after-before)
	}
}

func TestGilbertElliottStatistics(t *testing.T) {
	// Sample the channel on a regular grid and check the empirical loss
	// rate tracks the long-run mean, the dwell-weighted average of the two
	// states' loss rates, and that losses are burstier than Bernoulli:
	// P(loss | previous loss) must exceed the marginal rate.
	cfg := BurstLoss{MeanGoodS: 1.0, MeanBadS: 0.25, LossGood: 0.02, LossBad: 0.9}
	sched := sim.NewScheduler(7)
	g := newGilbertElliott(cfg, sched.RNG("fault.burst"))
	const samples = 200000
	const dt = 0.01
	losses, pairs, pairLosses := 0, 0, 0
	prev := false
	for i := 0; i < samples; i++ {
		lost := g.lossy(float64(i) * dt)
		if lost {
			losses++
		}
		if prev {
			pairs++
			if lost {
				pairLosses++
			}
		}
		prev = lost
	}
	rate := float64(losses) / samples
	want := (cfg.MeanGoodS*cfg.LossGood + cfg.MeanBadS*cfg.LossBad) / (cfg.MeanGoodS + cfg.MeanBadS)
	if math.Abs(rate-want) > 0.02 {
		t.Errorf("empirical loss rate %.4f, analytic mean %.4f", rate, want)
	}
	condRate := float64(pairLosses) / float64(pairs)
	if condRate < rate+0.2 {
		t.Errorf("P(loss|loss)=%.3f not burstier than marginal %.3f", condRate, rate)
	}
}

func TestBurstInstallsLossModel(t *testing.T) {
	// An always-bad burst channel must black out a lossless radio.
	net, sched := testNet(t, 8)
	plan := Plan{Burst: &BurstLoss{MeanGoodS: 1e-9, MeanBadS: 1e9, LossGood: 0, LossBad: 1}}
	if err := Apply(plan, net); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	net.MustNode(1).OnMessage = func(n *wsn.Node, msg wsn.Message) { delivered++ }
	for i := 0; i < 20; i++ {
		i := i
		// Send after the (vanishing) initial good sojourn has elapsed.
		if err := sched.Schedule(0.01*float64(i+1), func() {
			_ = net.Unicast(0, 1, "x", i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunAll()
	if delivered != 0 {
		t.Errorf("delivered %d frames through an always-bad channel", delivered)
	}
	if net.Stats().Lost == 0 {
		t.Error("loss counter untouched")
	}
}

func TestCrashFractionDeterministicAndProtected(t *testing.T) {
	p1 := CrashFraction(50, 0.2, 10, 0.5, 42, 0)
	p2 := CrashFraction(50, 0.2, 10, 0.5, 42, 0)
	if len(p1.Crashes) != 10 {
		t.Fatalf("crashes = %d, want 10", len(p1.Crashes))
	}
	for i := range p1.Crashes {
		if p1.Crashes[i] != p2.Crashes[i] {
			t.Fatalf("crash %d differs between identical calls: %+v vs %+v", i, p1.Crashes[i], p2.Crashes[i])
		}
		if p1.Crashes[i].Node == 0 {
			t.Error("protected node 0 was crashed")
		}
	}
	p3 := CrashFraction(50, 0.2, 10, 0.5, 43, 0)
	same := true
	for i := range p1.Crashes {
		if p1.Crashes[i].Node != p3.Crashes[i].Node {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds picked identical victims")
	}
	if len(CrashFraction(50, 0, 10, 0.5, 42).Crashes) != 0 {
		t.Error("zero fraction should crash nobody")
	}
}

func TestFaultPlanDeterminism(t *testing.T) {
	// Two identical runs under the same plan must produce identical
	// network statistics.
	run := func() wsn.Stats {
		net, sched := testNet(t, 11)
		radio := wsn.DefaultRadioConfig()
		plan := Plan{
			Crashes: []Crash{{Node: 4, At: 0.5, ReviveAt: 1.5}},
			Burst:   &BurstLoss{MeanGoodS: 0.5, MeanBadS: 0.1, LossGood: 0.05, LossBad: 0.8},
		}
		_ = radio
		if err := Apply(plan, net); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			at := 0.01 * float64(i)
			if err := sched.Schedule(at, func() {
				_ = net.SendMultiHop(0, 5, "probe", at, "")
			}); err != nil {
				t.Fatal(err)
			}
		}
		sched.RunAll()
		return net.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical fault plans diverged:\n%+v\n%+v", a, b)
	}
}
