package sid

import (
	"fmt"
	"math/rand"

	"github.com/sid-wsn/sid/internal/adversary"
	"github.com/sid-wsn/sid/internal/cluster"
	"github.com/sid-wsn/sid/internal/obs"
)

// This file applies an adversary.Plan to a running deployment. Clock
// spoofs are wsn-level and delegated to adversary.ApplyClocks; byzantine
// report injection lives here because a convincing injection must travel
// the real protocol — a fabricated report joins the node's current cluster
// or sets up a temporary cluster exactly like a genuine detection would
// (dispatchReport), so the attack load on radios, heads, and the sink is
// physical, not bookkept.
//
// Determinism: every injection is a scheduled discrete event, and all
// fabricated payload randomness is drawn from the dedicated
// ("adversary.byz") stream inside those events — the scheduler's serial
// phases — so runs are bit-identical for any Workers value and any
// attached observability.

// onsetJitter bounds how far (seconds) a fabricated onset is placed before
// the injection time, drawn uniformly.
const onsetJitter = 2.0

// applyAdversary schedules the configured attack plan. Called from
// NewRuntime after fault application, before the run starts.
func (r *Runtime) applyAdversary() error {
	plan := r.cfg.Adversary
	if plan.Empty() {
		return nil
	}
	if err := adversary.ApplyClocks(plan, r.net); err != nil {
		return err
	}
	rng := r.sched.RNG("adversary.byz")
	for i, b := range plan.Byzantine {
		b := b
		period := b.Period
		if period == 0 {
			period = 10
		}
		count := b.Count
		if count == 0 {
			count = 1
		}
		for k := 0; k < count; k++ {
			at := b.Start + float64(k)*period
			if err := r.sched.Schedule(at, func() { r.inject(b, rng) }); err != nil {
				return fmt.Errorf("sid: Adversary.Byzantine[%d]: %w", i, err)
			}
		}
	}
	return nil
}

// inject performs one byzantine injection: build the lying payload, journal
// the ground truth, and hand it to the same dispatch path a genuine
// detection takes.
func (r *Runtime) inject(b adversary.ByzantineNode, rng *rand.Rand) {
	ns := r.nodes[b.Node]
	node := r.net.MustNode(ns.id)
	if !node.Alive() {
		// A crashed or drained node cannot transmit — the fault layer wins.
		return
	}
	var payload cluster.Report
	switch b.Behavior {
	case adversary.Replay:
		if !ns.hasReport {
			// Nothing genuine overheard yet; a replayer stays silent rather
			// than fabricating (that would be the other behavior).
			return
		}
		payload = ns.lastReport // stale onset and all
	default: // adversary.Fabricate
		payload = cluster.Report{
			Node: int(ns.id),
			Row:  ns.row,
			Pos:  ns.pos,
			// Plausible: onset just before "now" on the node's own clock,
			// energy in [0.5, 1.5]·EnergyBase.
			Onset:  node.LocalTime(r.sched.Now()) - rng.Float64()*onsetJitter,
			Energy: b.EnergyBase * (0.5 + rng.Float64()),
		}
	}
	r.ctr.injections.Inc()
	if r.col.Journaling() {
		r.col.Emit(r.sched.Now(), obs.KindByzantineInject, obs.ByzantineInject{
			Node: int(ns.id), Behavior: b.Behavior.String(),
			Onset: payload.Onset, Energy: payload.Energy,
		})
	}
	r.dispatchReport(ns, payload)
}

// InjectedReports returns how many byzantine reports entered the protocol
// (registry: "adversary.injections").
func (r *Runtime) InjectedReports() int { return int(r.ctr.injections.Value()) }
