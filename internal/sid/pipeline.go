package sid

import (
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/parallel"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/wsn"
)

// This file is the streaming ingest/detect loop: the batch pipeline that
// pulls sample blocks from the deployment's source, tees them into an
// attached recording, and feeds each node's detector. Protocol reactions
// (cluster setup, reports, evaluation) live in protocol.go.

// Run drives the deployment for dur seconds of simulated time: sampling,
// detection, clustering, correlation, and sink reporting all happen inside.
//
// Each sensing batch is a single scheduler event processed in three
// phases: gate (serial — decide which nodes sense, charge idle energy),
// produce (parallel — each sensing node's sample block comes from the
// source, fanned across Config.Workers goroutines), and consume (serial,
// ascending node order — detector pushes and protocol reactions). Message
// deliveries are scheduler events of their own, so no protocol state
// changes while a batch event runs; the pipeline is therefore observably
// identical to the fully serial implementation, and runs are bit-identical
// for any worker count.
//
// The loop is streaming end to end: the source hands out one batch per
// node at a time, the detector consumes it into its bounded anomaly-window
// ring, and the block reference is dropped before the next batch — no
// stage ever buffers a full run, so a deployment can run online against an
// unbounded stream.
//
// Run may be called repeatedly to advance the deployment in segments (the
// serving layer ingests one chunk per segment). The global sample index
// persists across segments (r.sampleIdx), so index-addressed sources —
// trace replays, push-fed streams — stay aligned: segment N+1 asks for the
// sample right after the last one segment N consumed. Segments should be
// multiples of SampleBatch; a misaligned segment still runs, but its last
// batch extends past the segment end, exactly as a single long Run's final
// batch would.
func (r *Runtime) Run(dur float64) error {
	start := r.sched.Now()
	end := start + dur
	sampleRate := r.src.Rate()
	perBatch := int(r.cfg.SampleBatch * sampleRate)
	if perBatch < 1 {
		perBatch = 1
	}
	prep, _ := r.src.(source.BatchPreparer)
	active := make([]*nodeState, 0, len(r.nodes))
	var batchAt func(t float64, sampleIdx int)
	batchAt = func(t float64, sampleIdx int) {
		r.sampleIdx = sampleIdx + perBatch
		active = active[:0]
		for _, ns := range r.nodes {
			if r.senseGate(ns, sampleIdx, perBatch, sampleRate) {
				active = append(active, ns)
			}
		}
		if prep != nil {
			// Serial staging hook: the synthetic source queries its spatial
			// wake index here, once per batch, before the parallel fan-out.
			prep.PrepareBatch(sampleIdx, t, perBatch)
		}
		parallel.ForEach(len(active), r.cfg.Workers, func(i int) {
			ns := active[i]
			ns.block = r.src.Block(int(ns.id), sampleIdx, t, perBatch)
		})
		if r.rec != nil {
			// Tee in the serial phase, after the fan-out joined and before
			// consumption nils the blocks: recording observes exactly what
			// the detectors are about to see and never perturbs the run.
			for _, ns := range active {
				r.rec.Append(int(ns.id), sampleIdx, ns.block)
			}
		}
		// Memory accounting happens while the blocks are still resident —
		// consumeBlock drops them — so the gauge reflects a node's true
		// high-water mark, sample block included.
		r.trackNodeMem()
		for _, ns := range active {
			r.consumeBlock(ns)
		}
		r.boundHistory()
		next := t + float64(perBatch)/sampleRate
		if next < end {
			_ = r.sched.Schedule(next, func() { batchAt(next, sampleIdx+perBatch) })
		}
	}
	if err := r.sched.Schedule(start, func() { batchAt(start, r.sampleIdx) }); err != nil {
		return err
	}
	r.sched.Run(end)
	return nil
}

// senseGate decides whether a node senses the current batch, charging idle
// energy either way. It runs in the serial pre-pass of a batch event, so
// ordering matches the historical one-node-at-a-time implementation.
func (r *Runtime) senseGate(ns *nodeState, sampleIdx, perBatch int, rate float64) bool {
	node := r.net.MustNode(ns.id)
	if !node.Alive() {
		return false
	}
	if node.Battery != nil {
		node.Battery.AccrueIdle(float64(perBatch) / rate)
	}
	// Duty cycling: non-sentinel nodes run coarse mode (every fourth
	// batch) unless woken by an invite or active in a cluster.
	now := r.sched.Now()
	woken := now < ns.awakeTil || (ns.inTempCluster && now < ns.membership)
	if !ns.sentinel && !woken && (sampleIdx/perBatch)%4 != 0 {
		return false
	}
	return true
}

// consumeBlock feeds one node's sample block into its detector and reacts
// to completed anomaly windows. Serial phase: network sends and battery
// accounting happen here, in node order.
func (r *Runtime) consumeBlock(ns *nodeState) {
	node := r.net.MustNode(ns.id)
	for _, smp := range ns.block {
		if node.Battery != nil {
			node.Battery.Consume(wsn.CostSample)
		}
		ws, done := ns.det.Push(smp.T, float64(smp.Z))
		if !done {
			continue
		}
		if node.Battery != nil {
			node.Battery.Consume(wsn.CostCPU)
		}
		// Journal windows with at least one crossing (quiet windows would
		// drown the ring, and their Onset is NaN — not JSON). The guard
		// keeps the no-op path allocation-free: the payload is only boxed
		// when a journal or tracer is attached.
		if ws.Crossings > 0 && r.col.Journaling() {
			r.col.Emit(r.sched.Now(), obs.KindNodeWindow, obs.NodeWindow{
				Node: int(ns.id), Start: ws.Start, End: ws.End,
				AF: ws.AnomalyFreq, Crossings: ws.Crossings,
				Energy: ws.Energy, Onset: ws.Onset,
				Threshold: ws.Threshold, Mean: ws.Mean, Std: ws.Std,
			})
		}
		if ns.det.Detected(ws) {
			r.onNodeDetection(ns, node, ns.det.ReportOf(ws))
		}
	}
	ns.block = nil
}
