// Package fault is the deterministic chaos harness for the WSN layer: it
// drives scheduled node crashes and revivals, battery depletion, clock
// desynchronization steps, and a Gilbert–Elliott burst-loss channel from
// the discrete-event clock and the simulation's seeded RNG streams. The
// same plan on the same seed reproduces the same failure sequence exactly,
// so every resilience experiment — and every regression test asserting on
// one — is replayable bit for bit (the same contract internal/sim gives
// the fault-free runs).
//
// Plans are pure data; Apply schedules them onto a deployed network. The
// SID runtime applies Config.Faults at construction, and the public facade
// exposes the same plan shape, so any scenario can run under faults.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/sid-wsn/sid/internal/wsn"
)

// Crash takes a node down at a scheduled time, optionally reviving it.
type Crash struct {
	// Node is the victim's ID.
	Node int
	// At is the crash time in simulation seconds.
	At float64
	// ReviveAt restores the node when > At; 0 (or any value ≤ At) means
	// the crash is permanent.
	ReviveAt float64
}

// Depletion empties a node's battery at a scheduled time. Nodes without a
// battery (mains-powered) are crashed permanently instead — the grid went
// down and there is no cell to recover.
type Depletion struct {
	Node int
	At   float64
}

// ClockStep knocks a node's clock by a fixed offset at a scheduled time
// (reboot glitches, temperature steps): the time-sync error the speed
// estimator has to survive.
type ClockStep struct {
	Node int
	At   float64
	// Offset is added to the node's clock offset, in seconds.
	Offset float64
}

// BurstLoss parametrizes a two-state continuous-time Gilbert–Elliott
// channel: the radio alternates between a good and a bad state with
// exponentially distributed sojourn times, and frames are lost with a
// state-dependent probability. Bursts are what defeat blind same-instant
// retries — and what the reliable transport's backoff is for.
type BurstLoss struct {
	// MeanGoodS, MeanBadS are the mean sojourn times in seconds.
	MeanGoodS, MeanBadS float64
	// LossGood, LossBad are per-frame loss probabilities in each state.
	LossGood, LossBad float64
}

func (b BurstLoss) validate() error {
	if b.MeanGoodS <= 0 {
		return fmt.Errorf("fault: Burst.MeanGoodS = %g, must be positive", b.MeanGoodS)
	}
	if b.MeanBadS <= 0 {
		return fmt.Errorf("fault: Burst.MeanBadS = %g, must be positive", b.MeanBadS)
	}
	if b.LossGood < 0 || b.LossGood >= 1 {
		return fmt.Errorf("fault: Burst.LossGood = %g, must be in [0,1)", b.LossGood)
	}
	if b.LossBad < 0 || b.LossBad > 1 {
		return fmt.Errorf("fault: Burst.LossBad = %g, must be in [0,1]", b.LossBad)
	}
	return nil
}

// Plan is a complete, declarative fault schedule. The zero value is the
// empty plan (no faults).
type Plan struct {
	Crashes    []Crash
	Depletions []Depletion
	ClockSteps []ClockStep
	// Burst replaces the radio's Bernoulli loss with a Gilbert–Elliott
	// burst channel for the whole run when non-nil.
	Burst *BurstLoss
}

// Empty reports whether the plan schedules nothing.
func (p Plan) Empty() bool {
	return len(p.Crashes) == 0 && len(p.Depletions) == 0 && len(p.ClockSteps) == 0 && p.Burst == nil
}

// Validate checks the plan against a network of n nodes. Error messages
// name the offending entry by slice, index and field (e.g.
// "Crashes[2].Node") so a rejected hand-written plan is correctable
// without a debugger.
func (p Plan) Validate(n int) error {
	// Each list is bounded by the deployment it describes, so a plan is
	// never larger than its network.
	for _, l := range []struct {
		name string
		len  int
	}{{"Crashes", len(p.Crashes)}, {"Depletions", len(p.Depletions)}, {"ClockSteps", len(p.ClockSteps)}} {
		if l.len > n {
			return fmt.Errorf("fault: %s has %d entries, more than the %d nodes", l.name, l.len, n)
		}
	}
	entry := func(list string, i, node int, at float64) error {
		if node < 0 || node >= n {
			return fmt.Errorf("fault: %s[%d].Node = %d, outside [0,%d)", list, i, node, n)
		}
		if at < 0 {
			return fmt.Errorf("fault: %s[%d].At = %g, must be ≥ 0", list, i, at)
		}
		return nil
	}
	for i, c := range p.Crashes {
		if err := entry("Crashes", i, c.Node, c.At); err != nil {
			return err
		}
	}
	for i, d := range p.Depletions {
		if err := entry("Depletions", i, d.Node, d.At); err != nil {
			return err
		}
	}
	for i, s := range p.ClockSteps {
		if err := entry("ClockSteps", i, s.Node, s.At); err != nil {
			return err
		}
	}
	if p.Burst != nil {
		return p.Burst.validate()
	}
	return nil
}

// Apply validates the plan and schedules every fault onto the network's
// event queue. Events are scheduled in a canonical order (crashes,
// depletions, clock steps, each in slice order), so two identical plans
// enqueue identically and runs stay bit-identical. Call once, before
// running the scheduler past the earliest fault time.
func Apply(p Plan, net *wsn.Network) error {
	if err := p.Validate(net.NumNodes()); err != nil {
		return err
	}
	sched := net.Sched
	for _, c := range p.Crashes {
		n := net.MustNode(wsn.NodeID(c.Node))
		if err := sched.Schedule(c.At, n.Fail); err != nil {
			return err
		}
		if c.ReviveAt > c.At {
			if err := sched.Schedule(c.ReviveAt, n.Revive); err != nil {
				return err
			}
		}
	}
	for _, d := range p.Depletions {
		n := net.MustNode(wsn.NodeID(d.Node))
		err := sched.Schedule(d.At, func() {
			if n.Battery != nil {
				n.Battery.Deplete()
			} else {
				n.Fail()
			}
		})
		if err != nil {
			return err
		}
	}
	for _, s := range p.ClockSteps {
		n := net.MustNode(wsn.NodeID(s.Node))
		offset := s.Offset
		if err := sched.Schedule(s.At, func() { n.Clock.Adjust(offset) }); err != nil {
			return err
		}
	}
	if p.Burst != nil {
		ch := newGilbertElliott(*p.Burst, sched.RNG("fault.burst"))
		net.SetLossModel(ch.lossy)
	}
	return nil
}

// gilbertElliott is the lazily-advanced continuous-time two-state channel.
// State flips are drawn once, in query order, from a dedicated stream;
// because every query happens at a deterministic event time, the whole
// loss sequence is reproducible.
type gilbertElliott struct {
	cfg      BurstLoss
	rng      *rand.Rand
	bad      bool
	nextFlip float64
}

func newGilbertElliott(cfg BurstLoss, rng *rand.Rand) *gilbertElliott {
	g := &gilbertElliott{cfg: cfg, rng: rng}
	g.nextFlip = rng.ExpFloat64() * cfg.MeanGoodS
	return g
}

// lossy advances the channel to now and draws one frame-loss decision.
func (g *gilbertElliott) lossy(now float64) bool {
	for now >= g.nextFlip {
		g.bad = !g.bad
		mean := g.cfg.MeanGoodS
		if g.bad {
			mean = g.cfg.MeanBadS
		}
		g.nextFlip += g.rng.ExpFloat64() * mean
	}
	p := g.cfg.LossGood
	if g.bad {
		p = g.cfg.LossBad
	}
	return g.rng.Float64() < p
}

// CrashFraction returns a plan crashing frac of the n nodes (rounded down)
// at staggered times starting at t0, spaced gap seconds apart, never
// touching the protected IDs (e.g. the sink). Victims are the first of
// Victims' hash order with salt 0, so the same arguments always pick the
// same nodes — a convenience for sweeps that want "kill 12% of the field
// mid-collection" without hand-listing IDs.
func CrashFraction(n int, frac float64, t0, gap float64, seed int64, protected ...int) Plan {
	var p Plan
	for i, id := range Victims(n, int(frac*float64(n)), seed, 0, protected...) {
		p.Crashes = append(p.Crashes, Crash{Node: id, At: t0 + float64(i)*gap})
	}
	return p
}

// Victims returns count deterministic victims among the n node IDs that
// are not protected (all of them when fewer remain), ordered by a salted
// splitmix-style hash of (seed, id), ties by ID. Callers that draw
// independent victim sets on one seed use different salts.
func Victims(n, count int, seed int64, salt uint64, protected ...int) []int {
	if count <= 0 {
		return nil
	}
	prot := make(map[int]bool, len(protected))
	for _, id := range protected {
		prot[id] = true
	}
	type scored struct {
		id   int
		hash uint64
	}
	var order []scored
	for id := 0; id < n; id++ {
		if prot[id] {
			continue
		}
		h := (uint64(id)*0x9e3779b97f4a7c15 ^ uint64(seed)*0xbf58476d1ce4e5b9) + salt
		h ^= h >> 29
		h *= 0x94d049bb133111eb
		h ^= h >> 32
		order = append(order, scored{id, h})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].hash != order[j].hash {
			return order[i].hash < order[j].hash
		}
		return order[i].id < order[j].id
	})
	ids := make([]int, min(count, len(order)))
	for i := range ids {
		ids[i] = order[i].id
	}
	return ids
}
