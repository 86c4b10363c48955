package main

import (
	"fmt"
	"math"
	"time"

	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/sid"
)

// sensingBatch is the runtime's default sensing batch in seconds (one
// node-block), which every workload keeps.
const sensingBatch = 0.5

// attributionSlack is the scenario engine's attribution window: a sink
// confirmation counts for a vessel when its mean onset lies within this
// many seconds of the vessel's wake-sweep window, and is false otherwise.
const attributionSlack = 45.0

// endToEnd fills the metrics every workload reports with tracing off.
// ingestMs are the per-input-unit latencies (due → processed) whose median
// is ingest_p50_ms.
func endToEnd(m metricSet, setups []float64, wallS, cpuUsPerNodeBlock float64, ingestMs []float64) error {
	p50, err := percentile(ingestMs, 0.5)
	if err != nil {
		return fmt.Errorf("ingest latency: %w", err)
	}
	m.set("setup_s", median(setups), "s")
	m.set("wall_s", wallS, "s")
	m.set("cpu_us_per_node_block", cpuUsPerNodeBlock, "us")
	m.set("peak_rss_mb", float64(readUsage().maxRSSB)/1e6, "MB")
	m.set("ingest_p50_ms", p50, "ms")
	return nil
}

func perNodeBlockUs(cpu time.Duration, nodeBlocks float64) float64 {
	return safeDiv(cpu.Seconds()*1e6, nodeBlocks)
}

// perBatch is how many samples one node-block holds in a deployment.
func perBatch(cfg sid.Config, rate float64) int {
	return int(math.Round(cfg.SampleBatch * rate))
}

// sourceLayer reports the timing decorator's spans. laneNs is the lane time
// the fan-out share is taken of: wall time × the deployments running at
// once.
func sourceLayer(m metricSet, sps []*spans, laneNs float64) {
	var blockNs, blocks, prepNs, preps, fanNs int64
	for _, sp := range sps {
		sp.closeBatch()
		blockNs += sp.blockNs
		blocks += sp.blocks
		prepNs += sp.prepareNs
		preps += sp.prepares
		fanNs += sp.fanoutNs
	}
	m.set("source.block_us_per_node_block", safeDiv(float64(blockNs)/1e3, float64(blocks)), "us")
	m.set("source.prepare_us_per_batch", safeDiv(float64(prepNs)/1e3, float64(preps)), "us")
	m.set("source.fanout_share", safeDiv(float64(fanNs), laneNs), "ratio")
	m.count("source.node_blocks", float64(blocks))
}

// detectLayer re-runs the node detector in isolation over blocks the
// decorator copied aside: one fresh detector per kept node, fed that
// node's samples in the order the run consumed them.
func detectLayer(m metricSet, cfg detect.Config, kept [][]sensor.Sample, perBatch int) error {
	var dets []*detect.Detector
	var streams [][]sensor.Sample
	samples := 0
	for _, blk := range kept {
		if len(blk) == 0 {
			continue
		}
		det, err := detect.New(cfg)
		if err != nil {
			return err
		}
		dets = append(dets, det)
		streams = append(streams, blk)
		samples += len(blk)
	}
	start := time.Now()
	for i, det := range dets {
		for _, s := range streams[i] {
			det.Push(s.T, float64(s.Z))
		}
	}
	el := time.Since(start)
	m.set("detect.push_us_per_node_block", safeDiv(float64(el)/1e3, float64(samples)/float64(perBatch)), "us")
	return nil
}

// protocolLayer reports the protocol and radio layers from the message
// handler spans and the runtimes' public counters.
func protocolLayer(m metricSet, rts []*sid.Runtime, sps []*spans) {
	var msgNs, msgs int64
	for _, sp := range sps {
		msgNs += sp.msgNs
		msgs += sp.msgs
	}
	var clusters, sinks, peak, sent, lost, retrans int
	for _, rt := range rts {
		clusters += rt.ClustersFormed()
		sinks += len(rt.SinkReports())
		if b := rt.PeakNodeBytes(); b > peak {
			peak = b
		}
		st := rt.Network().Stats()
		sent += st.Sent
		lost += st.Lost
		retrans += st.Retransmissions
	}
	m.set("sid.on_message_us", safeDiv(float64(msgNs)/1e3, float64(msgs)), "us")
	m.count("sid.messages", float64(msgs))
	m.count("sid.clusters_formed", float64(clusters))
	m.count("sid.sink_reports", float64(sinks))
	m.set("sid.confirm_ratio", safeDiv(float64(sinks), float64(clusters)), "ratio")
	m.set("sid.peak_node_bytes", float64(peak), "B")
	m.count("wsn.frames_sent", float64(sent))
	m.count("wsn.frames_lost", float64(lost))
	m.count("wsn.retransmissions", float64(retrans))
	m.set("wsn.delivery_ratio", safeDiv(float64(sent-lost), float64(sent)), "ratio")
}
