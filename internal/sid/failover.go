package sid

import (
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/wsn"
)

// Cluster-head failover: the temporary cluster head of Algorithm SID is a
// single point of failure for the whole confirmation — if it dies
// mid-collection, every member report it gathered dies with it and the
// intrusion goes unreported. With failover enabled the head leases its
// role instead of owning it: it floods a heartbeat through the cluster
// every heartbeatPeriod, members run a watchdog, and when heartbeatMiss
// periods pass silently the members elect a replacement by the
// deterministic lowest-ID-alive rule — each candidate waits
// electionGap·(id+1) before claiming the role, so the lowest alive ID
// claims first and its takeover flood cancels every later candidacy.
// Members retain their last report and re-send it to the new head, which
// restarts collection against the original membership window. Everything
// runs as ordinary scheduler events off the deterministic clock: identical
// seeds and fault plans fail over identically.

// Additional SID message kinds used by failover.
const (
	// KindHeartbeat is the head's periodic role lease (payload: head ID).
	KindHeartbeat = "sid.heartbeat"
	// KindTakeover announces an elected replacement head (payload:
	// TakeoverPayload).
	KindTakeover = "sid.takeover"
)

// TakeoverPayload announces that New replaces Old as the cluster head.
type TakeoverPayload struct {
	Old, New wsn.NodeID
}

// FailoverConfig enables cluster-head failover. The zero value disables
// it, keeping default runs bit-identical to the pre-failover protocol.
type FailoverConfig struct {
	// Enabled turns heartbeats, watchdogs and elections on.
	Enabled bool
}

// Failover timings, tuned for the default 90 s collection window.
const (
	// heartbeatPeriod is the head's lease-renewal interval in seconds.
	heartbeatPeriod = 5.0
	// heartbeatMiss is how many silent periods a member tolerates before
	// declaring the head dead and starting an election.
	heartbeatMiss = 3
	// electionGap staggers candidacies: a member with ID k claims the role
	// electionGap·(k+1) seconds after declaring the head dead, so the
	// lowest alive ID wins deterministically. It must exceed the cluster's
	// flood propagation time (a few frame delays).
	electionGap = 0.05
	// extendWindow grants the head one deadline extension of this many
	// seconds when a report arrived within the last extendWindow seconds
	// of the collection window — reports are still trickling in, often
	// because retransmissions or a failover delayed them.
	extendWindow = 15.0
)

// DefaultFailoverConfig returns an enabled failover.
func DefaultFailoverConfig() FailoverConfig { return FailoverConfig{Enabled: true} }

// startHeartbeats begins the head's lease-renewal loop for the collection
// window ending at deadline. The loop stops on its own when the node loses
// the head role (deadline passed, failover elsewhere) or dies.
func (r *Runtime) startHeartbeats(ns *nodeState, deadline float64) {
	var beat func()
	beat = func() {
		if !ns.isHead || ns.deadline != deadline {
			return
		}
		if !r.net.MustNode(ns.id).Alive() {
			return
		}
		r.countSend(ns.id, r.net.Flood(ns.id, clusterHops, KindHeartbeat, ns.id))
		_ = r.sched.After(heartbeatPeriod, beat)
	}
	_ = r.sched.After(heartbeatPeriod, beat)
}

// observeHead records proof of life for the member's head and re-arms the
// watchdog. Called on invite, heartbeat, and takeover receipt.
func (r *Runtime) observeHead(ns *nodeState) {
	if !r.cfg.Failover.Enabled {
		return
	}
	ns.lastBeat = r.sched.Now()
	ns.electEpoch++
	epoch := ns.electEpoch
	_ = r.sched.After(heartbeatPeriod*heartbeatMiss, func() { r.watchdogFired(ns, epoch) })
}

// watchdogFired runs when a member has heard nothing from its head for the
// full tolerance window: every later proof of life bumps electEpoch, so a
// stale epoch means a newer watchdog is armed and this one stands down.
func (r *Runtime) watchdogFired(ns *nodeState, epoch int) {
	if ns.electEpoch != epoch || !ns.inTempCluster || ns.isHead {
		return
	}
	now := r.sched.Now()
	if now >= ns.membership || !r.net.MustNode(ns.id).Alive() {
		return
	}
	// Head presumed dead: stagger this node's candidacy by its ID so the
	// lowest alive member claims the role first.
	delay := electionGap * float64(ns.id+1)
	_ = r.sched.After(delay, func() { r.claimHead(ns, epoch) })
}

// claimHead promotes a member to replacement head unless a takeover or a
// resumed heartbeat (both bump electEpoch) beat it to it.
func (r *Runtime) claimHead(ns *nodeState, epoch int) {
	if ns.electEpoch != epoch || !ns.inTempCluster || ns.isHead {
		return
	}
	now := r.sched.Now()
	if now >= ns.membership || !r.net.MustNode(ns.id).Alive() {
		return
	}
	old := ns.headID
	ns.electEpoch++
	ns.isHead = true
	ns.headID = ns.id
	ns.deadline = ns.membership
	ns.reports = ns.reports[:0]
	ns.extended = false
	r.ctr.failovers.Inc()
	if r.col.Journaling() {
		r.col.Emit(now, obs.KindFailoverElect, obs.FailoverElect{
			Old: int(old), New: int(ns.id),
		})
	}
	// The cluster's trace key follows the role to the elected head.
	if prev := r.nodes[old]; prev.trace != "" {
		ns.trace, prev.trace = prev.trace, ""
	}
	if ns.hasReport {
		r.acceptReport(ns, ns.lastReport)
	}
	r.countSend(ns.id, r.net.Flood(ns.id, clusterHops, KindTakeover, TakeoverPayload{Old: old, New: ns.id}))
	deadline := ns.deadline
	_ = r.sched.Schedule(deadline, func() { r.headDeadline(ns, deadline) })
	r.startHeartbeats(ns, deadline)
}

// onTakeover redirects a member to the elected replacement head and
// re-sends its retained report so the new head can rebuild the collection
// the old head took down with it.
func (r *Runtime) onTakeover(ns *nodeState, p TakeoverPayload) {
	now := r.sched.Now()
	if !ns.inTempCluster || now >= ns.membership || ns.id == p.New {
		return
	}
	// Only members of the failed head's cluster follow; an unrelated
	// cluster's flood passing through is ignored.
	if ns.headID != p.Old && ns.headID != p.New {
		return
	}
	if ns.isHead {
		// Concurrent claim lost to a lower ID (possible only when the
		// winner's flood was lost toward us): step down and follow.
		if p.New > ns.id {
			return
		}
		ns.isHead = false
		ns.reports = nil
	}
	ns.headID = p.New
	r.observeHead(ns)
	if ns.hasReport {
		if r.col.Journaling() {
			r.col.Emit(now, obs.KindReportSend, obs.ReportSend{
				Node: int(ns.id), Head: int(p.New), Onset: ns.lastReport.Onset,
				Energy: ns.lastReport.Energy, Resend: true,
			})
		}
		r.countSend(ns.id, r.net.SendMultiHop(ns.id, p.New, KindReport, ns.lastReport, r.nodes[p.New].trace))
	}
}
