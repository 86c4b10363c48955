package sid

import (
	"fmt"

	"github.com/sid-wsn/sid/internal/cluster"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/wsn"
)

// Hierarchical report aggregation: on a 100×100-node field, every member of
// a temporary cluster radioing its report straight to the head concentrates
// hundreds of multi-hop unicasts on the head's neighborhood within one
// collection window. The hierarchy layer splits the deployment into k
// sub-clusters around deterministically chosen sub-heads
// (wsn.SelectRoots/BuildTree): a member hands its report to its
// sub-head, which buffers reports per destination head and forwards them in
// batched summaries. The head applies exactly the same per-report
// acceptance (dedup, defense gates, the report.accept event) to a summarized report
// as to a direct one, so evaluation results are unchanged — only the radio
// traffic shape differs. Disabled (the zero value), runs are bit-identical
// to the flat protocol.

// Message kinds of the aggregation tier.
const (
	// KindSubReport is a member handing its report to its sub-cluster head
	// for aggregation (payload: SubReportPayload).
	KindSubReport = "sid.subreport"
	// KindSummary is a sub-cluster head forwarding buffered reports to the
	// collection head (payload: SummaryPayload).
	KindSummary = "sid.summary"
)

// HierarchyConfig enables two-level report collection.
type HierarchyConfig struct {
	// Enabled turns the aggregation tier on. Off (the zero value), members
	// report directly to their cluster head and runs are bit-identical to
	// the flat protocol.
	Enabled bool
}

// The aggregation tier's settings.
const (
	// nodesPerSubHead sizes the tier: one sub-cluster head per 64 nodes
	// (rounded up), enough that a sub-cluster stays within a radio
	// neighborhood on grid deployments.
	nodesPerSubHead = 64
	// flushInterval is how long a sub-head may hold buffered reports before
	// forwarding them (seconds). It bounds the extra report latency the
	// aggregation tier adds, so it must be small against CollectWindow.
	flushInterval = 2.0
	// maxBatch flushes a sub-head's buffer early once this many reports
	// for one head have accumulated.
	maxBatch = 8
)

// DefaultHierarchyConfig returns the aggregation tier's defaults (still
// disabled; set Enabled yourself).
func DefaultHierarchyConfig() HierarchyConfig { return HierarchyConfig{} }

// SubReportPayload is a member's report traveling to its sub-head, tagged
// with the collection head it must ultimately reach.
type SubReportPayload struct {
	Head   wsn.NodeID
	Report cluster.Report
}

// SummaryPayload is a sub-head's batched forward to one collection head.
type SummaryPayload struct {
	Head    wsn.NodeID
	Reports []cluster.Report
}

// aggBatch is a sub-head's buffer of member reports destined for one
// collection head. armed marks a pending flush timer; epoch invalidates
// stale timer closures after an early (maxBatch) flush re-arms the buffer.
type aggBatch struct {
	head    wsn.NodeID
	reports []cluster.Report
	armed   bool
	epoch   int
}

// setupHierarchy partitions the deployment into sub-clusters. Called from
// NewRuntime after fault injection, so construction-time failures are
// excluded from sub-head duty; sub-heads that die later are bypassed per
// report (see hierRoute).
func (r *Runtime) setupHierarchy() error {
	roots := r.net.SelectRoots((len(r.nodes) + nodesPerSubHead - 1) / nodesPerSubHead)
	tree, err := r.net.BuildTree(roots...)
	if err != nil {
		return fmt.Errorf("sid: hierarchy setup: %w", err)
	}
	for _, ns := range r.nodes {
		ns.subHead = tree.Root[ns.id]
	}
	r.col.Registry().Gauge("sid.subheads").Set(float64(len(roots)))
	return nil
}

// hierRoute reports whether ns should hand its report to a sub-head rather
// than sending directly: the aggregation tier is on, ns has a live sub-head
// that is neither itself nor already the destination head. Falling back to
// the direct path whenever any of that fails keeps the hierarchy an
// optimization, never a new failure mode.
func (r *Runtime) hierRoute(ns *nodeState) bool {
	return r.cfg.Hierarchy.Enabled &&
		ns.subHead >= 0 &&
		ns.subHead != ns.id &&
		ns.subHead != ns.headID &&
		r.net.MustNode(ns.subHead).Alive()
}

// onSubReport buffers a member report at the sub-head and schedules its
// forwarding: immediately once maxBatch reports for the same head are
// waiting, otherwise after flushInterval. Runs inside a message-delivery
// scheduler event, so buffering is serial and deterministic.
func (r *Runtime) onSubReport(ns *nodeState, p SubReportPayload) {
	// A sub-head that happens to be the destination head (it joined the
	// same temporary cluster) short-circuits the buffer entirely.
	if ns.led != nil && ns.id == p.Head {
		r.acceptReport(ns, p.Report)
		return
	}
	var b *aggBatch
	for i := range ns.agg {
		if ns.agg[i].head == p.Head {
			b = &ns.agg[i]
			break
		}
	}
	if b == nil {
		ns.agg = append(ns.agg, aggBatch{head: p.Head})
		b = &ns.agg[len(ns.agg)-1]
	}
	b.reports = append(b.reports, p.Report)
	if len(b.reports) >= maxBatch {
		r.flushSummary(ns, p.Head)
		return
	}
	if !b.armed {
		b.armed = true
		b.epoch++
		epoch := b.epoch
		head := p.Head
		_ = r.sched.Schedule(r.sched.Now()+flushInterval, func() {
			for i := range ns.agg {
				if ns.agg[i].head == head && ns.agg[i].armed && ns.agg[i].epoch == epoch {
					r.flushSummary(ns, head)
					return
				}
			}
		})
	}
}

// flushSummary drains the sub-head's buffer for one head into a single
// multi-hop summary message. The summary carries the head's cluster key so
// its ARQ events name the cluster's trace; the head's acceptReport then
// records each member report's acceptance as usual.
func (r *Runtime) flushSummary(ns *nodeState, head wsn.NodeID) {
	var b *aggBatch
	for i := range ns.agg {
		if ns.agg[i].head == head {
			b = &ns.agg[i]
			break
		}
	}
	if b == nil || len(b.reports) == 0 {
		return
	}
	reports := b.reports
	b.reports = nil
	b.armed = false
	if !r.net.MustNode(ns.id).Alive() {
		// The sub-head died holding buffered reports: they are lost, exactly
		// as a dead member's direct report would be.
		return
	}
	if r.col.Journaling() {
		r.col.Emit(r.sched.Now(), obs.KindSummaryFlush, obs.SummaryFlush{
			Sub: int(ns.id), Head: int(head), Reports: len(reports),
		})
	}
	r.countSend(ns.id, r.net.SendMultiHop(ns.id, head, KindSummary,
		SummaryPayload{Head: head, Reports: reports}, r.clusterKey(head)))
}
