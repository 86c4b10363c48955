package sid

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/sid-wsn/sid/internal/cluster"
	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/wsn"
)

// hierConfig returns a 6×6 crossing-ship deployment with deterministic
// radio timing (no loss, no jitter) so the flat and hierarchical protocols
// can be compared report-for-report: with stochastic radio state the two
// modes draw from the RNG in different orders and the runs diverge for
// reasons unrelated to aggregation.
func hierConfig(enabled bool) Config {
	cfg := DefaultConfig()
	cfg.Grid = geo.GridSpec{Rows: 6, Cols: 6, Spacing: 25}
	cfg.Seed = 106
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterStd = 0
	if enabled {
		cfg.Hierarchy = DefaultHierarchyConfig()
		cfg.Hierarchy.Enabled = true
	}
	return cfg
}

func runHier(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddShip(crossGridShip(t, cfg, 10, 150))
	if err := rt.Run(450); err != nil {
		t.Fatal(err)
	}
	return rt
}

func sortedReports(reports []cluster.Report) []cluster.Report {
	out := append([]cluster.Report(nil), reports...)
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// TestHierarchyMatchesFlatCollection is the aggregation tier's core
// contract: routing member reports through sub-heads in batched summaries
// must deliver the same reports to the same heads and confirm the same
// intrusions — only the radio path changes, never the protocol outcome.
func TestHierarchyMatchesFlatCollection(t *testing.T) {
	flat := runHier(t, hierConfig(false))
	hier := runHier(t, hierConfig(true))
	if len(flat.SinkReports()) == 0 {
		t.Fatal("flat run produced no sink reports; comparison would be vacuous")
	}
	if len(hier.SinkReports()) != len(flat.SinkReports()) {
		t.Fatalf("sink reports: hierarchy %d vs flat %d", len(hier.SinkReports()), len(flat.SinkReports()))
	}
	for i, f := range flat.SinkReports() {
		h := hier.SinkReports()[i]
		// Time is the sink-local arrival instant and may shift by the
		// aggregation latency. MeanOnset sums the reports in arrival order,
		// which batching permutes — identical multiset, last-ulp different
		// sum — so it gets a rounding tolerance instead of DeepEqual.
		if math.Abs(h.MeanOnset-f.MeanOnset) > 1e-9 {
			t.Errorf("sink report %d mean onset: flat %v vs hier %v", i, f.MeanOnset, h.MeanOnset)
		}
		h.Time, f.Time = 0, 0
		h.MeanOnset, f.MeanOnset = 0, 0
		if !reflect.DeepEqual(f, h) {
			t.Errorf("sink report %d differs:\nflat: %+v\nhier: %+v", i, f, h)
		}
	}
	if len(hier.Evaluations()) != len(flat.Evaluations()) {
		t.Fatalf("evaluations: hierarchy %d vs flat %d", len(hier.Evaluations()), len(flat.Evaluations()))
	}
	for i, fe := range flat.Evaluations() {
		he := hier.Evaluations()[i]
		if fe.Head != he.Head {
			t.Errorf("evaluation %d head: flat %d vs hier %d", i, fe.Head, he.Head)
		}
		// Arrival order differs (batched vs per-member), the collected set
		// must not.
		if !reflect.DeepEqual(sortedReports(fe.Reports), sortedReports(he.Reports)) {
			t.Errorf("evaluation %d reports differ:\nflat: %+v\nhier: %+v",
				i, sortedReports(fe.Reports), sortedReports(he.Reports))
		}
		if fe.Result.Detected != he.Result.Detected || fe.Result.C != he.Result.C {
			t.Errorf("evaluation %d result: flat C=%g det=%v vs hier C=%g det=%v",
				i, fe.Result.C, fe.Result.Detected, he.Result.C, he.Result.Detected)
		}
	}
	// NodeReports are produced below the protocol layer and must be
	// bit-identical regardless of collection topology.
	if !reflect.DeepEqual(flat.NodeReports(), hier.NodeReports()) {
		t.Error("node reports differ between flat and hierarchical runs")
	}
	// The aggregation tier must have actually engaged, or the parity above
	// proves nothing.
	if g := hier.Observability().Registry().Gauge("sid.subheads").Value(); g < 1 {
		t.Fatalf("no sub-heads selected (gauge %g)", g)
	}
	routed := false
	for _, ns := range hier.nodes {
		if len(ns.agg) > 0 {
			routed = true
		}
	}
	if !routed {
		t.Fatal("no sub-head ever buffered a report — hierarchy never engaged")
	}
}

// TestHierarchyWorkersBitIdentical extends the Workers determinism contract
// to the aggregation tier: summary batching happens in scheduler events, so
// worker count must not change a single report or sink byte.
func TestHierarchyWorkersBitIdentical(t *testing.T) {
	base := hierConfig(true)
	base.Workers = 1
	serial := runHier(t, base)
	if len(serial.SinkReports()) == 0 {
		t.Fatal("serial hierarchical run produced no sink reports")
	}
	for _, workers := range []int{2, 4} {
		cfg := hierConfig(true)
		cfg.Workers = workers
		rt := runHier(t, cfg)
		if !reflect.DeepEqual(serial.SinkReports(), rt.SinkReports()) {
			t.Errorf("workers=%d: sink reports differ from serial hierarchical run", workers)
		}
		if !reflect.DeepEqual(serial.NodeReports(), rt.NodeReports()) {
			t.Errorf("workers=%d: node reports differ from serial hierarchical run", workers)
		}
	}
}

// TestHierarchySubHeadDeathFallback: members whose sub-head is dead fall
// back to reporting directly, so losing every sub-head degrades the
// deployment to the flat protocol instead of losing the detection.
func TestHierarchySubHeadDeathFallback(t *testing.T) {
	cfg := hierConfig(true)
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	subHeads := map[int]bool{}
	for _, ns := range rt.nodes {
		if ns.subHead >= 0 {
			subHeads[int(ns.subHead)] = true
		}
	}
	if len(subHeads) == 0 {
		t.Fatal("no sub-heads assigned")
	}
	for id := range subHeads {
		rt.Network().MustNode(wsn.NodeID(id)).Fail()
	}
	rt.AddShip(crossGridShip(t, cfg, 10, 150))
	if err := rt.Run(450); err != nil {
		t.Fatal(err)
	}
	if len(rt.SinkReports()) == 0 {
		t.Fatalf("detection lost with dead sub-heads (clusters: %d, cancelled: %d)",
			rt.ClustersFormed(), rt.Cancelled())
	}
	for _, ns := range rt.nodes {
		for _, b := range ns.agg {
			if len(b.reports) > 0 {
				t.Errorf("node %d buffered reports despite dead sub-heads", ns.id)
			}
		}
	}
}

// TestHierarchyFailoverResendViaSubHead: with the aggregation tier and
// failover both on, a head dies mid-collection and the members elect a
// replacement. A member's resend of its retained report then takes the
// same route as a first send: through its sub-head, whose summary carries
// it to the elected head, which accepts it and confirms.
func TestHierarchyFailoverResendViaSubHead(t *testing.T) {
	cfg := failoverCfg()
	cfg.Hierarchy = HierarchyConfig{Enabled: true}
	j := obs.NewJournal(obs.DefaultJournalCap)
	cfg.Obs = obs.New()
	cfg.Obs.SetJournal(j)
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reports carry the wake-front arrival and amplitude of a 10 kn
	// crossing along column 3 that has passed by t = 60 s.
	ship := crossGridShip(t, cfg, 10, 30)
	report := func(id wsn.NodeID) detect.Report {
		sig := ship.SignalAt(rt.nodes[id].pos)
		return detect.Report{Onset: sig.Arrival, Energy: sig.Amp}
	}
	// The 36 nodes form one sub-cluster around node 14, which is not among
	// the reporting nodes.
	const head, sub wsn.NodeID = 21, 14
	members := []wsn.NodeID{8, 9, 10, 11, 15, 16, 17, 20, 22, 23, 26, 27, 28, 29}
	for _, id := range append([]wsn.NodeID{head}, members...) {
		if s := rt.nodes[id].subHead; s != sub {
			t.Fatalf("node %d has sub-head %d, want %d", id, s, sub)
		}
	}

	rt.sched.Run(60)
	rt.onNodeDetection(rt.nodes[head], rt.net.MustNode(head), report(head))
	rt.sched.Run(61) // deliver the invites
	for _, id := range members {
		rt.onNodeDetection(rt.nodes[id], rt.net.MustNode(id), report(id))
	}
	rt.sched.Run(70) // flush the summaries to the head
	rt.net.MustNode(head).Fail()
	rt.sched.Run(200)

	var elected wsn.NodeID = -1
	resentAt := map[int]float64{}
	lastFlush := -1.0 // the sub-head's latest summary to the elected head
	flushed := 0      // reports in those summaries
	viaSub := map[int]bool{}
	for _, ev := range j.Events() {
		switch d := ev.Data.(type) {
		case obs.FailoverElect:
			if d.Old == int(head) && elected < 0 {
				elected = wsn.NodeID(d.New)
			}
		case obs.ReportSend:
			if d.Resend && d.Head == int(elected) {
				resentAt[d.Node] = ev.T
			}
		case obs.SummaryFlush:
			if elected >= 0 && d.Sub == int(sub) && d.Head == int(elected) {
				lastFlush = ev.T
				flushed += d.Reports
			}
		case obs.ReportAccept:
			if at, ok := resentAt[d.Node]; ok && d.Head == int(elected) {
				viaSub[d.Node] = lastFlush >= at
			}
		}
	}
	if elected < 0 || elected == sub {
		t.Fatalf("elected head %d after head %d died; want a member other than the sub-head %d", elected, head, sub)
	}
	resends := 0
	for _, id := range members {
		if id == elected {
			continue
		}
		resends++
		if _, ok := resentAt[int(id)]; !ok {
			t.Errorf("member %d did not re-send to the elected head %d", id, elected)
		} else if !viaSub[int(id)] {
			t.Errorf("member %d's resend did not reach the elected head %d through sub-head %d", id, elected, sub)
		}
	}
	if flushed != resends {
		t.Errorf("sub-head %d forwarded %d reports to the elected head %d, want the %d resends", sub, flushed, elected, resends)
	}
	srs := rt.SinkReports()
	if len(srs) != 1 || srs[0].Head != elected {
		t.Fatalf("sink reports %+v, want one from the elected head %d", srs, elected)
	}
}
