package sid

// Memory-bounded node state: a 100×100 field multiplies every per-node byte
// by 10,000 and every per-event record by the activity rate, so the runtime
// accounts for both. The detector side is bounded by construction — fixed
// rings sized from the detect configuration (detect.Detector.MemBytes) —
// and this file adds the two pieces the runtime owns: eviction of the
// report/evaluation history past Config.HistoryWindow, and the
// "sid.peak_node_bytes" gauge tracking the largest per-node resident
// footprint the run has seen. Both run in the batch loop's serial phase, so
// they are deterministic and never race the synthesis fan-out.

// memReportBytes approximates one collected report's resident size
// (cluster.Report: six machine words).
const memReportBytes = 48

// memSampleBytes approximates one sensor.Sample (float64 + 3×int16, padded).
const memSampleBytes = 16

// memBytes is the node's resident protocol + detector state in bytes:
// detector rings, head-side collected reports, sub-head aggregation
// buffers, and the in-flight sample block.
func (ns *nodeState) memBytes() int {
	b := ns.det.MemBytes() + cap(ns.block)*memSampleBytes
	if ns.led != nil {
		b += cap(ns.led.reports) * memReportBytes
	}
	for i := range ns.agg {
		b += cap(ns.agg[i].reports) * memReportBytes
	}
	return b
}

// trackNodeMem updates the peak per-node footprint after a batch. The scan
// is O(nodes) with a tiny constant — noise next to the synthesis work the
// same batch just did.
func (r *Runtime) trackNodeMem() {
	peak := r.peakNodeBytes
	for _, ns := range r.nodes {
		if b := ns.memBytes(); b > peak {
			peak = b
		}
	}
	if peak > r.peakNodeBytes {
		r.peakNodeBytes = peak
		r.col.Registry().Gauge("sid.peak_node_bytes").Set(float64(peak))
	}
}

// PeakNodeBytes returns the largest per-node resident state observed so far
// (registry: "sid.peak_node_bytes"). Zero until the first batch completes.
func (r *Runtime) PeakNodeBytes() int { return r.peakNodeBytes }

// boundHistory evicts node reports and evaluations older than
// Config.HistoryWindow. No-op when the window is 0 (keep everything).
func (r *Runtime) boundHistory() {
	w := r.cfg.HistoryWindow
	if w <= 0 {
		return
	}
	cutoff := r.sched.Now() - w
	r.nodeReports = trimOld(r.nodeReports, func(nr NodeReport) bool { return nr.Time >= cutoff })
	r.evaluations = trimOld(r.evaluations, func(ev Evaluation) bool { return ev.Time >= cutoff })
}

// trimOld drops the slice's leading elements failing keep, compacting in
// place and zeroing the vacated tail so evicted entries (and anything they
// reference — report slices, errors) are actually collectible. Entries are
// appended in time order, so only a prefix ever expires.
func trimOld[T any](s []T, keep func(T) bool) []T {
	i := 0
	for i < len(s) && !keep(s[i]) {
		i++
	}
	if i == 0 {
		return s
	}
	n := copy(s, s[i:])
	var zero T
	for j := n; j < len(s); j++ {
		s[j] = zero
	}
	return s[:n]
}
