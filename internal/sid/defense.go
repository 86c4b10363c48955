package sid

import (
	"github.com/sid-wsn/sid/internal/cluster"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/wsn"
)

// This file is the head-side defense layer against the internal/adversary
// attack model. Three mechanisms, each paired with the attack it answers:
//
//   - Freshness gating (defenseAdmit): a report's onset must lie inside the
//     physically possible window for the collection — replayed stale
//     reports reproduce a real pass's consistent space-time pattern and
//     sail through the pure order-statistics gates, but their onsets are
//     necessarily old. Timestamps cross the network in node-local clock,
//     so the gate compares against the head's local clock with slack for
//     sync residuals.
//   - Trimmed evaluation (cluster.EvaluateRobust, wired in headDeadline):
//     fabricated reports have fresh onsets and plausible energies, so
//     gating cannot see them; they reveal themselves only against the
//     honest majority's wake-sweep structure.
//   - Suspicion and quarantine: every piece of per-node evidence (a
//     freshness rejection, a trimmed-by-consensus verdict in a detecting
//     evaluation) bumps a score; past suspicionThreshold the node's
//     reports are refused outright, which caps what a persistent
//     compromised node can inject over a long run.
//
// The suspicion ledger charges the node ID a report claims to come from.
// The implemented attacks do not forge origins (a replayer re-sends its
// own genuine report), so the charge lands on the compromised node; an
// origin-forging attacker could frame honest nodes, and defending that
// needs link-layer authentication — outside this model, noted here so the
// limitation is explicit.

// DefenseConfig configures the head-side defenses. The zero value disables
// them all, keeping runs bit-identical to the undefended protocol.
type DefenseConfig struct {
	// Enabled turns the defense layer on, with the constants below.
	Enabled bool
}

// The defended arm's settings.
const (
	// staleSlack extends the freshness window into the past, beyond the
	// collection window itself, to absorb clock-sync residuals and
	// multi-hop delivery delay (seconds).
	staleSlack = 20.0
	// futureSlack is how far into the head's future an onset may claim to
	// be (seconds) — sync residuals make small leads legitimate.
	futureSlack = 5.0
	// maxTrimFrac bounds the fraction of reports cluster.EvaluateRobust may
	// discard while searching for a detecting honest subset.
	maxTrimFrac = 0.25
	// suspicionThreshold quarantines a node when its suspicion score
	// reaches it.
	suspicionThreshold = 3
)

// DefaultDefenseConfig returns the defended-arm settings used by the
// adversarial evaluation.
func DefaultDefenseConfig() DefenseConfig { return DefenseConfig{Enabled: true} }

// defenseAdmit decides whether a head folds a report into its collection.
// The returned reason ("quarantined", "stale", "future", "energy") feeds
// the rejection journal and the suspicion ledger.
func (r *Runtime) defenseAdmit(head *nodeState, p cluster.Report) (bool, string) {
	if p.Node >= 0 && p.Node < len(r.quarantined) && r.quarantined[p.Node] {
		return false, "quarantined"
	}
	if p.Energy <= 0 {
		return false, "energy"
	}
	headLocal := r.net.MustNode(head.id).LocalTime(r.sched.Now())
	if p.Onset < headLocal-r.cfg.CollectWindow-staleSlack {
		return false, "stale"
	}
	if p.Onset > headLocal+futureSlack {
		return false, "future"
	}
	return true, ""
}

// rejectReport books a refused report: counter, journal, and a suspicion
// bump against the claimed origin (quarantined origins are already charged;
// re-charging them would just inflate the score).
func (r *Runtime) rejectReport(head *nodeState, p cluster.Report, reason string) {
	r.ctr.rejected.Inc()
	if r.col.Journaling() {
		r.col.Emit(r.sched.Now(), obs.KindReportReject, obs.ReportReject{
			Head: int(head.id), Node: p.Node,
			Onset: p.Onset, Energy: p.Energy, Reason: reason,
		})
	}
	if reason != "quarantined" {
		r.suspect(p.Node, reason)
	}
}

// suspect bumps a node's suspicion score and quarantines it at the
// threshold. Runs only in the scheduler's serial phases, so the ledger is
// deterministic for any Workers value.
func (r *Runtime) suspect(node int, reason string) {
	if node < 0 || node >= len(r.suspicion) {
		return
	}
	r.suspicion[node]++
	r.ctr.suspicions.Inc()
	quarantined := false
	if r.suspicion[node] >= suspicionThreshold && !r.quarantined[node] && wsn.NodeID(node) != SinkNode {
		r.quarantined[node] = true
		r.ctr.quarantines.Inc()
		quarantined = true
	}
	if r.col.Journaling() {
		r.col.Emit(r.sched.Now(), obs.KindSuspicion, obs.Suspicion{
			Node: node, Score: r.suspicion[node],
			Reason: reason, Quarantined: quarantined,
		})
	}
}

// SuspicionScores returns the per-node suspicion ledger, indexed by node ID.
func (r *Runtime) SuspicionScores() []int {
	return append([]int(nil), r.suspicion...)
}

// QuarantinedNodes returns the IDs currently under quarantine, ascending.
func (r *Runtime) QuarantinedNodes() []int {
	var out []int
	for id, q := range r.quarantined {
		if q {
			out = append(out, id)
		}
	}
	return out
}

// RejectedReports returns how many reports the defense layer refused
// (registry: "defense.rejected").
func (r *Runtime) RejectedReports() int { return int(r.ctr.rejected.Value()) }
