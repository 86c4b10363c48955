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

// startHeartbeats begins the head's lease-renewal loop for c's collection
// window. The loop stops on its own when the node loses the head role
// (deadline passed, failover elsewhere), when an extension starts a new
// loop, or when the node dies.
func (r *Runtime) startHeartbeats(ns *nodeState, c *tempCluster) {
	deadline := c.deadline
	var beat func()
	beat = func() {
		if ns.led != c || c.deadline != deadline {
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
	ns.electEpoch++
	epoch := ns.electEpoch
	_ = r.sched.After(heartbeatPeriod*heartbeatMiss, func() { r.watchdogFired(ns, epoch) })
}

// watchdogFired runs when a member has heard nothing from its head for the
// full tolerance window: every later proof of life bumps electEpoch, so a
// stale epoch means a newer watchdog is armed and this one stands down.
func (r *Runtime) watchdogFired(ns *nodeState, epoch int) {
	if ns.electEpoch != epoch || ns.led != nil {
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
	if ns.electEpoch != epoch || ns.led != nil {
		return
	}
	now := r.sched.Now()
	if now >= ns.membership || !r.net.MustNode(ns.id).Alive() {
		return
	}
	old := ns.headID
	ns.electEpoch++
	ns.headID = ns.id
	c := &tempCluster{deadline: ns.membership}
	ns.led = c
	r.ctr.failovers.Inc()
	if r.col.Journaling() {
		r.col.Emit(now, obs.KindFailoverElect, obs.FailoverElect{
			Old: int(old), New: int(ns.id),
		})
	}
	// The cluster's key follows the role to the elected head.
	if prev := r.nodes[old].led; prev != nil {
		c.key, prev.key = prev.key, ""
	}
	if ns.hasReport {
		r.acceptReport(ns, ns.lastReport)
	}
	r.countSend(ns.id, r.net.Flood(ns.id, clusterHops, KindTakeover, TakeoverPayload{Old: old, New: ns.id}))
	r.lead(ns, c)
}

// onTakeover redirects a member to the elected replacement head and
// re-sends its retained report so the new head can rebuild the collection
// the old head took down with it.
func (r *Runtime) onTakeover(ns *nodeState, p TakeoverPayload) {
	now := r.sched.Now()
	if now >= ns.membership || ns.id == p.New {
		return
	}
	// Only members of the failed head's cluster follow; an unrelated
	// cluster's flood passing through is ignored.
	if ns.headID != p.Old && ns.headID != p.New {
		return
	}
	if ns.led != nil {
		// A live head named as Old: a member of its own cluster missed its
		// heartbeats and claimed. Step down to a lower ID and ignore a
		// higher one. (Concurrent claimants for a dead head both name that
		// head as Old, so each ignores the other's takeover above and
		// neither steps down.)
		if p.New > ns.id {
			return
		}
		ns.led = nil
	}
	ns.headID = p.New
	r.observeHead(ns)
	if ns.hasReport {
		r.sendReport(ns, ns.lastReport, true)
	}
}
