package sid

import (
	"fmt"
	"math"

	"github.com/sid-wsn/sid/internal/cluster"
	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/speed"
	"github.com/sid-wsn/sid/internal/wsn"
)

// This file is the cluster protocol: Algorithm SID's reaction to a node
// detection (SetUpTempCluster / report-to-head), message dispatch, report
// deduplication at the head, and the collection-deadline evaluation
// (SpaceTimeDataProcessing). Head failover lives in failover.go.

// Message kinds used by the SID protocol.
const (
	KindInvite     = "sid.invite"
	KindReport     = "sid.report"
	KindSinkReport = "sid.sink"
)

// ReportPayload is a member's detection report to its temporary cluster
// head (the paper: "it reports EΔ and the onset time").
type ReportPayload struct {
	Node   wsn.NodeID
	Row    int
	Pos    geo.Vec2
	Onset  float64 // node-local clock time of onset
	Energy float64
}

// SinkReport is what the sink finally receives for one confirmed intrusion.
type SinkReport struct {
	// Head is the temporary cluster head that confirmed the intrusion.
	Head wsn.NodeID
	// Time is the sink-local time of the report's arrival.
	Time float64
	// C is the correlation coefficient of the confirming evaluation.
	C float64
	// Reports is the number of member reports used.
	Reports int
	// MeanOnset is the average onset across reports (head-local time).
	MeanOnset float64
	// HasSpeed reports whether the four-node speed condition was met.
	HasSpeed bool
	// Speed is the estimated intruder speed in m/s (if HasSpeed).
	Speed float64
	// Heading is the estimated sailing-line angle in radians (if HasSpeed).
	Heading float64
}

// onNodeDetection implements the DetectIntrusion branch of Algorithm SID.
func (r *Runtime) onNodeDetection(ns *nodeState, node *wsn.Node, rep detect.Report) {
	now := r.sched.Now()
	payload := ReportPayload{
		Node:   ns.id,
		Row:    ns.row,
		Pos:    ns.pos,
		Onset:  node.LocalTime(rep.Onset), // timestamps cross the network in local time
		Energy: rep.Energy,
	}
	ns.lastReport = payload
	ns.hasReport = true
	r.nodeReports = append(r.nodeReports, NodeReport{
		Node: ns.id, Time: now, Onset: payload.Onset, Energy: payload.Energy,
	})
	if r.col.Journaling() {
		r.col.Emit(now, obs.KindNodeReport, obs.NodeReport{
			Node: int(ns.id), Row: ns.row, Onset: payload.Onset,
			Energy: payload.Energy, AF: rep.AnomalyFreq,
		})
	}
	r.dispatchReport(ns, payload)
}

// dispatchReport is the protocol reaction to a report originating at ns —
// report to the current head, accept locally when ns is the head, or set up
// a temporary cluster. Factored out of onNodeDetection because byzantine
// injection (adversary.go) must travel the same path as a genuine
// detection: the attack's radio traffic, cluster formations, and sink load
// are real.
func (r *Runtime) dispatchReport(ns *nodeState, payload ReportPayload) {
	now := r.sched.Now()
	if ns.inTempCluster && now < ns.membership {
		if ns.isHead {
			r.acceptReport(ns, payload)
			return
		}
		if r.col.Journaling() {
			r.col.Emit(now, obs.KindReportSend, obs.ReportSend{
				Node: int(ns.id), Head: int(ns.headID),
				Onset: payload.Onset, Energy: payload.Energy,
			})
		}
		trace := r.nodes[ns.headID].trace
		if r.hierRoute(ns) {
			// Two-level collection: hand the report to the sub-cluster head
			// for batched forwarding. Journal and trace exactly as a direct
			// send — the report's protocol meaning is unchanged, only its
			// radio path differs.
			r.countSend(ns.id, r.net.SendMultiHopTraced(ns.id, ns.subHead, KindSubReport,
				SubReportPayload{Head: ns.headID, Report: payload}, trace))
			return
		}
		r.countSend(ns.id, r.net.SendMultiHopTraced(ns.id, ns.headID, KindReport, payload, trace))
		return
	}
	// SetUpTempCluster: become head, invite neighbors within six hops.
	ns.inTempCluster = true
	ns.isHead = true
	ns.headID = ns.id
	ns.membership = now + r.cfg.CollectWindow
	ns.deadline = ns.membership
	ns.reports = ns.reports[:0]
	ns.extended = false
	r.ctr.clustersFormed.Inc()
	if r.col.Journaling() {
		ns.trace = obs.ClusterKey(int(ns.id), ns.deadline)
		r.col.Emit(now, obs.KindClusterSetup, obs.ClusterSetup{
			Head: int(ns.id), Deadline: ns.deadline, Onset: payload.Onset,
		})
	}
	r.acceptReport(ns, payload)
	r.countSend(ns.id, r.net.Flood(ns.id, r.cfg.ClusterHops, KindInvite, ns.id))
	deadline := ns.deadline
	_ = r.sched.Schedule(deadline, func() { r.headDeadline(ns, deadline) })
	if r.cfg.Failover.Enabled {
		r.startHeartbeats(ns, deadline)
	}
}

// onMessage dispatches SID protocol messages.
func (r *Runtime) onMessage(node *wsn.Node, msg wsn.Message) {
	ns := r.nodes[node.ID]
	switch msg.Kind {
	case KindInvite:
		head, ok := msg.Payload.(wsn.NodeID)
		if !ok {
			return
		}
		// Already in a cluster: keep the first membership (the paper does
		// not merge clusters; extra invites are ignored).
		if ns.inTempCluster && r.sched.Now() < ns.membership {
			return
		}
		ns.inTempCluster = true
		ns.isHead = false
		ns.headID = head
		ns.membership = r.sched.Now() + r.cfg.CollectWindow
		ns.awakeTil = ns.membership // wake a sleeping node for the window
		if r.col.Journaling() {
			r.col.Emit(r.sched.Now(), obs.KindClusterJoin, obs.ClusterJoin{
				Node: int(ns.id), Head: int(head), Until: ns.membership,
			})
		}
		r.observeHead(ns)
	case KindHeartbeat:
		head, ok := msg.Payload.(wsn.NodeID)
		if !ok {
			return
		}
		if ns.inTempCluster && !ns.isHead && head == ns.headID &&
			r.sched.Now() < ns.membership {
			r.observeHead(ns)
		}
	case KindTakeover:
		payload, ok := msg.Payload.(TakeoverPayload)
		if !ok {
			return
		}
		r.onTakeover(ns, payload)
	case KindReport:
		payload, ok := msg.Payload.(ReportPayload)
		if !ok {
			return
		}
		if ns.isHead {
			r.acceptReport(ns, payload)
		}
	case KindSubReport:
		payload, ok := msg.Payload.(SubReportPayload)
		if !ok {
			return
		}
		if r.cfg.Hierarchy.Enabled {
			r.onSubReport(ns, payload)
		}
	case KindSummary:
		payload, ok := msg.Payload.(SummaryPayload)
		if !ok {
			return
		}
		if ns.isHead && ns.id == payload.Head {
			for _, rep := range payload.Reports {
				r.acceptReport(ns, rep)
			}
		}
	case KindSinkReport:
		payload, ok := msg.Payload.(SinkReport)
		if !ok {
			return
		}
		if node.ID == r.cfg.SinkID {
			payload.Time = node.LocalTime(r.sched.Now())
			r.sinkReports = append(r.sinkReports, payload)
			if r.col.Journaling() {
				r.col.Emit(r.sched.Now(), obs.KindSinkReport, obs.SinkReport{
					Head: int(payload.Head), C: payload.C,
					Reports: payload.Reports, MeanOnset: payload.MeanOnset,
					HasSpeed: payload.HasSpeed, Speed: payload.Speed,
					Heading: payload.Heading, Trace: msg.Trace,
				})
			}
		}
	}
}

// eventGap is the maximum onset separation (seconds) for two reports from
// the same node to be considered observations of the same disturbance
// event (a wake train seen by overlapping Δt windows) rather than separate
// events.
const eventGap = 15.0

// acceptReport stores a member report at the head, deduplicating per node:
// a node may cross the threshold in several windows — noise before the
// wake, or the wake seen by overlapping windows. The highest-energy event
// survives ("we only record the reports which have the highest detected
// energy within the test period"), and within that event the earliest
// onset is kept — the paper's onset is "the time when the signal first
// exceeds the threshold", which is the wake-front arrival the speed
// estimator needs.
func (r *Runtime) acceptReport(head *nodeState, p ReportPayload) {
	if r.cfg.Defense.Enabled {
		if ok, reason := r.defenseAdmit(head, p); !ok {
			r.rejectReport(head, p, reason)
			return
		}
	}
	head.lastReportAt = r.sched.Now()
	if r.col.Journaling() {
		first := true
		for i := range head.reports {
			if head.reports[i].Node == int(p.Node) {
				first = false
				break
			}
		}
		r.col.Emit(r.sched.Now(), obs.KindReportAccept, obs.ReportAccept{
			Head: int(head.id), Node: int(p.Node),
			Onset: p.Onset, Energy: p.Energy, First: first,
		})
	}
	for i := range head.reports {
		if head.reports[i].Node == int(p.Node) {
			cur := &head.reports[i]
			if r.cfg.Defense.Enabled {
				// Atomic merge: a defended head keeps the (onset, energy)
				// pair of the strongest report as a unit. The permissive
				// earliest-onset rule below lets a low-energy fabrication
				// near the genuine event drag an honest witness's onset to
				// the attacker's chosen time; binding onset to the report
				// that carries the energy removes that lever at the cost of
				// a slightly later (strongest-window) onset estimate.
				if p.Energy > cur.Energy {
					cur.Energy = p.Energy
					cur.Onset = p.Onset
				}
				return
			}
			sameEvent := math.Abs(p.Onset-cur.Onset) < eventGap
			switch {
			case p.Energy > cur.Energy && sameEvent:
				cur.Energy = p.Energy
				if p.Onset < cur.Onset {
					cur.Onset = p.Onset
				}
			case p.Energy > cur.Energy:
				cur.Energy = p.Energy
				cur.Onset = p.Onset
			case sameEvent && p.Onset < cur.Onset:
				cur.Onset = p.Onset
			}
			return
		}
	}
	head.reports = append(head.reports, cluster.Report{
		Node:   int(p.Node),
		Pos:    p.Pos,
		Row:    p.Row,
		Onset:  p.Onset,
		Energy: p.Energy,
	})
}

// headDeadline runs SpaceTimeDataProcessing when the collection window
// closes.
func (r *Runtime) headDeadline(ns *nodeState, deadline float64) {
	if !ns.isHead || ns.deadline != deadline {
		return
	}
	if !r.net.MustNode(ns.id).Alive() {
		// The head died holding the role (no failover, or no member left
		// to take over): the collection is lost, not evaluated.
		ns.isHead = false
		ns.inTempCluster = false
		ns.headID = -1
		ns.trace = ""
		reports := ns.reports
		ns.reports = nil
		r.ctr.cancelled.Inc()
		if r.col.Journaling() {
			r.col.Emit(r.sched.Now(), obs.KindClusterCancel, obs.ClusterCancel{
				Head: int(ns.id), Reports: len(reports), Reason: "head-dead",
			})
		}
		r.evaluations = append(r.evaluations, Evaluation{
			Head: ns.id, Time: r.sched.Now(), Reports: reports,
			Err: fmt.Errorf("sid: head %d dead at collection deadline", ns.id),
		})
		return
	}
	// One-time extension when reports are still trickling in — typically
	// because retransmissions or a failover delayed the tail.
	fo := r.cfg.Failover
	if fo.Enabled && fo.ExtendWindow > 0 && !ns.extended &&
		len(ns.reports) > 0 && deadline-ns.lastReportAt <= fo.ExtendWindow {
		ns.extended = true
		next := deadline + fo.ExtendWindow
		ns.deadline = next
		ns.membership = next
		r.ctr.deadlineExt.Inc()
		if r.col.Journaling() {
			r.col.Emit(r.sched.Now(), obs.KindClusterExtend, obs.ClusterExtend{
				Head: int(ns.id), Deadline: next,
			})
		}
		_ = r.sched.Schedule(next, func() { r.headDeadline(ns, next) })
		if fo.HeartbeatPeriod > 0 {
			r.startHeartbeats(ns, next)
		}
		return
	}
	ns.isHead = false
	ns.inTempCluster = false
	ns.headID = -1
	reports := ns.reports
	ns.reports = nil
	// A confirmation carries the cluster key to the sink; every other
	// outcome ends the cluster's trace here.
	trace := ns.trace
	ns.trace = ""
	if len(reports) < r.cfg.MinReports {
		r.ctr.cancelled.Inc()
		if r.col.Journaling() {
			r.col.Emit(r.sched.Now(), obs.KindClusterCancel, obs.ClusterCancel{
				Head: int(ns.id), Reports: len(reports), Reason: "min-reports",
			})
		}
		r.evaluations = append(r.evaluations, Evaluation{Head: ns.id, Time: r.sched.Now(), Reports: reports})
		return
	}
	evalReports := reports
	var trimmed []int
	var res cluster.Result
	var err error
	if r.cfg.Defense.Enabled {
		// Byzantine-tolerant path: trim up to MaxTrimFrac of the reports
		// when the full set fails the gates. Only a detecting trimmed
		// evaluation accuses anyone.
		robust, rerr := cluster.EvaluateRobust(reports, r.cfg.Cluster, r.cfg.Defense.MaxTrimFrac)
		res, err = robust.Result, rerr
		trimmed = robust.Trimmed
		evalReports = robust.Kept
	} else {
		res, err = cluster.Evaluate(reports, r.cfg.Cluster)
	}
	r.evaluations = append(r.evaluations, Evaluation{
		Head: ns.id, Time: r.sched.Now(), Reports: reports,
		Result: res, Err: err, Trimmed: trimmed,
	})
	if err == nil {
		r.cHist.Observe(res.C)
	}
	if r.col.Journaling() {
		ev := obs.ClusterEval{
			Head: int(ns.id), Reports: len(reports),
			C: res.C, CNt: res.CNt, CNe: res.CNe,
			Sweep: res.Sweep, OrderTau: res.OrderTau,
			RowsUsed: res.RowsUsed, RowsTotal: res.RowsTotal,
			Detected: res.Detected,
		}
		if err != nil {
			ev.Err = err.Error()
		}
		r.col.Emit(r.sched.Now(), obs.KindClusterEval, ev)
	}
	if err != nil || !res.Detected {
		r.ctr.cancelled.Inc()
		return
	}
	// Nodes trimmed out of a confirming evaluation contradicted a real
	// event's space-time structure — that is evidence, and it accumulates.
	for _, id := range trimmed {
		r.suspect(id, "trimmed")
	}
	sink := SinkReport{
		Head:      ns.id,
		C:         res.C,
		Reports:   len(evalReports),
		MeanOnset: cluster.MeanOnset(evalReports),
	}
	// Ship speed condition: four suitable detections around the travel
	// line (§IV-C2). The defended path fits only the kept reports and uses
	// the leave-one-out estimator, which survives one spoofed timestamp.
	dets := make([]speed.Detection, len(evalReports))
	for i, rep := range evalReports {
		dets[i] = speed.Detection{Pos: rep.Pos, Time: rep.Onset, Energy: rep.Energy}
	}
	var est speed.Estimate
	var fits []speed.CandidateFit
	var estErr error
	if r.cfg.Defense.Enabled && r.cfg.Defense.RobustSpeed {
		var robust speed.RobustEstimate
		robust, estErr = speed.RobustFromDetections(dets, res.TravelLine, r.cfg.Grid.Spacing)
		est = robust.Estimate
		if estErr == nil && robust.Dropped >= 0 && robust.Dropped < len(evalReports) {
			r.suspect(evalReports[robust.Dropped].Node, "speed-outlier")
		}
	} else {
		est, fits, estErr = speed.EstimateFromDetectionsTrace(dets, res.TravelLine, r.cfg.Grid.Spacing)
	}
	if r.col.Journaling() {
		for _, fit := range fits {
			r.col.Emit(r.sched.Now(), obs.KindSpeedFit, obs.SpeedFit{
				Head: int(ns.id), AlphaRad: fit.Alpha,
				Slope: fit.Slope, SSE: fit.SSE,
				OK: fit.OK, Chosen: fit.Chosen,
			})
		}
	}
	if estErr == nil {
		sink.HasSpeed = true
		sink.Speed = est.Speed
		sink.Heading = est.Alpha
	}
	tree := r.tree
	if r.cfg.Failover.Enabled {
		// Route repair: the BFS tree was built at deployment time; nodes
		// that died since would silently eat the confirmation. Rebuilding
		// over the alive topology models a self-healing collection tree
		// (CTP-style); it is part of the resilience layer, so plain runs
		// keep the paper's static tree.
		if repaired, err := r.net.BuildTree(r.cfg.SinkID); err == nil {
			r.tree = repaired
			tree = repaired
			r.gaugeTreeDepth()
		}
	}
	r.countSend(ns.id, r.net.SendToRootTraced(tree, ns.id, KindSinkReport, sink, trace))
}
