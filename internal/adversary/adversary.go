// Package adversary is the attacker model layered over internal/fault's
// chaos harness: where fault breaks nodes honestly (crashes, drained cells,
// stepped clocks, lossy radios), adversary makes them lie. Compromised
// nodes fabricate plausible anomaly reports or replay stale genuine ones
// into cluster collection, and spoofed clocks skew smoothly — a rate
// change, not a step — so the 4-timestamp speed fit is poisoned without
// any discontinuity a step detector could flag. The shapes follow the
// maritime cyber-physical threat model (AIS position-offset attacks,
// identity tampering): plausible data, wrong content.
//
// Like fault.Plan, a Plan is pure data and fully deterministic: the SID
// runtime schedules every injection on the discrete-event clock and draws
// fabricated payloads from a dedicated seeded stream ("adversary.byz"), so
// the same plan on the same seed replays the same attack bit for bit —
// which is what lets the evaluation pair defended and undefended arms on
// identical seeds.
//
// The package owns the plan types, their validation, the clock-spoof
// application (wsn-level), and the deterministic victim-selection helpers;
// report injection needs the SID protocol and lives in internal/sid.
package adversary

import (
	"fmt"
	"sort"

	"github.com/sid-wsn/sid/internal/fault"
	"github.com/sid-wsn/sid/internal/wsn"
)

// Behavior selects what a compromised node does with its injections.
type Behavior int

const (
	// Fabricate invents fresh, plausible-looking reports: onset up to 2 s
	// before the current time, energy drawn around EnergyBase. This is the
	// false-data injection attack — it pollutes genuine collections and
	// can seed clusters of its own.
	Fabricate Behavior = iota
	// Replay re-sends the node's last genuine report verbatim, stale onset
	// included. Coordinated replays reproduce a real pass's consistent
	// space-time pattern and are the attack that defeats pure
	// order-statistics gates — only freshness checks stop them.
	Replay
)

// String names the behavior for journals and error messages.
func (b Behavior) String() string {
	switch b {
	case Fabricate:
		return "fabricate"
	case Replay:
		return "replay"
	default:
		return fmt.Sprintf("behavior(%d)", int(b))
	}
}

// ByzantineNode schedules one compromised node's injection campaign:
// Count injections starting at Start, Period seconds apart.
type ByzantineNode struct {
	// Node is the compromised node's ID.
	Node int
	// Behavior selects fabrication or replay.
	Behavior Behavior
	// Start is the first injection time in simulation seconds.
	Start float64
	// Period is the injection spacing in seconds (default 10 when 0).
	Period float64
	// Count is the number of injections (default 1 when 0).
	Count int
	// EnergyBase scales fabricated energies: each draw is uniform in
	// [0.5, 1.5]·EnergyBase. Ignored by Replay. Must be positive for
	// fabricators — a zero-energy report would be trivially implausible.
	EnergyBase float64
}

// ClockSpoof skews one node's clock rate by SkewPPM at time At, smoothly
// (no step — see wsn.Clock.Skew). At 10 000 ppm the victim's timestamps
// drift a full second every 100 s: enough to corrupt the wake-front
// arrival differences the speed estimator inverts, while staying invisible
// to any discontinuity check.
type ClockSpoof struct {
	Node int
	At   float64
	// SkewPPM is the rate change in parts per million (may be negative).
	SkewPPM float64
}

// Plan is a complete, declarative attack schedule. The zero value is the
// empty plan (no adversary).
type Plan struct {
	Byzantine   []ByzantineNode
	ClockSpoofs []ClockSpoof
}

// Empty reports whether the plan schedules nothing.
func (p Plan) Empty() bool {
	return len(p.Byzantine) == 0 && len(p.ClockSpoofs) == 0
}

// MaxInjections caps the injections a plan's byzantine campaigns schedule
// in all (a campaign with Count 0 schedules one). The runtime schedules
// every injection when it is built, at about 150 B each, so the cap bounds
// a plan's schedule near 15 MB; the campaigns the evaluation runs schedule
// 5–10 injections per compromised node.
const MaxInjections = 100_000

// Validate checks the plan against a network of n nodes. Error messages
// name the offending entry index and field.
func (p Plan) Validate(n int) error {
	injections := 0
	for i, b := range p.Byzantine {
		if b.Node < 0 || b.Node >= n {
			return fmt.Errorf("adversary: Byzantine[%d].Node = %d outside [0,%d)", i, b.Node, n)
		}
		if b.Behavior != Fabricate && b.Behavior != Replay {
			return fmt.Errorf("adversary: Byzantine[%d].Behavior = %d unknown", i, int(b.Behavior))
		}
		if b.Start < 0 {
			return fmt.Errorf("adversary: Byzantine[%d].Start = %g, must be non-negative", i, b.Start)
		}
		if b.Period < 0 {
			return fmt.Errorf("adversary: Byzantine[%d].Period = %g, must be non-negative", i, b.Period)
		}
		if b.Count < 0 {
			return fmt.Errorf("adversary: Byzantine[%d].Count = %d, must be non-negative", i, b.Count)
		}
		c := max(b.Count, 1)
		if c > MaxInjections-injections {
			return fmt.Errorf("adversary: Byzantine[%d].Count = %d takes the plan past %d injections",
				i, b.Count, MaxInjections)
		}
		injections += c
		if b.Behavior == Fabricate && b.EnergyBase <= 0 {
			return fmt.Errorf("adversary: Byzantine[%d].EnergyBase = %g, must be positive for fabricators", i, b.EnergyBase)
		}
	}
	if len(p.ClockSpoofs) > n {
		return fmt.Errorf("adversary: ClockSpoofs has %d entries, more than the %d nodes", len(p.ClockSpoofs), n)
	}
	for i, s := range p.ClockSpoofs {
		if s.Node < 0 || s.Node >= n {
			return fmt.Errorf("adversary: ClockSpoofs[%d].Node = %d outside [0,%d)", i, s.Node, n)
		}
		if s.At < 0 {
			return fmt.Errorf("adversary: ClockSpoofs[%d].At = %g, must be non-negative", i, s.At)
		}
		if s.SkewPPM == 0 {
			return fmt.Errorf("adversary: ClockSpoofs[%d].SkewPPM = 0, spoof would be a no-op", i)
		}
	}
	return nil
}

// ApplyClocks schedules every clock spoof onto the network's event queue
// (in slice order, so identical plans enqueue identically). Byzantine
// report injection is applied by the SID runtime — it needs the protocol.
func ApplyClocks(p Plan, net *wsn.Network) error {
	for i, s := range p.ClockSpoofs {
		n := net.MustNode(wsn.NodeID(s.Node))
		skew := s.SkewPPM
		if err := net.Sched.Schedule(s.At, func() {
			n.Clock.Skew(skew, net.Sched.Now())
		}); err != nil {
			return fmt.Errorf("adversary: ClockSpoofs[%d]: %w", i, err)
		}
	}
	return nil
}

// ByzantineFraction compromises frac of the n nodes (rounded down) with the
// given behavior template (Node is overwritten per victim), never touching
// the protected IDs (e.g. the sink). Victims are chosen by fault.Victims,
// the hash fault.CrashFraction uses, salted differently so the compromised
// set is independent of any crash set on the same seed; they come back in
// ID order.
func ByzantineFraction(n int, frac float64, template ByzantineNode, seed int64, protected ...int) []ByzantineNode {
	ids := pickNodes(n, int(frac*float64(n)), seed, 0xada11ce, protected...)
	out := make([]ByzantineNode, 0, len(ids))
	for _, id := range ids {
		b := template
		b.Node = id
		out = append(out, b)
	}
	return out
}

// SpoofNodes picks count victims for clock spoofing with the same
// deterministic hash, salted independently of ByzantineFraction so the two
// victim sets overlap only by chance.
func SpoofNodes(n, count int, seed int64, protected ...int) []int {
	return pickNodes(n, count, seed, 0x51c0ffee, protected...)
}

// pickNodes returns fault.Victims' set in ID order.
func pickNodes(n, count int, seed int64, salt uint64, protected ...int) []int {
	ids := fault.Victims(n, count, seed, salt, protected...)
	sort.Ints(ids)
	return ids
}
