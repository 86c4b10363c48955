package sid

import (
	"reflect"
	"testing"

	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/fault"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/wsn"
)

func TestFailoverConfigValidation(t *testing.T) {
	// Fault plans are validated through the config.
	c := DefaultConfig()
	c.Faults = fault.Plan{Crashes: []fault.Crash{{Node: 999, At: 1}}}
	if _, err := NewRuntime(c); err == nil {
		t.Error("expected fault-plan validation error")
	}
}

// killFirstHead arms a once-per-second probe that crashes the first
// non-sink cluster head it finds holding at least four reports with at
// least 20 s of collection window left (so the members' watchdog can run
// its course), returning a pointer to the victim's ID (-1 until the kill
// happens). The probe is an ordinary scheduler event, so the kill time is
// deterministic for a given seed.
func killFirstHead(rt *Runtime, from, until float64) *wsn.NodeID {
	victim := new(wsn.NodeID)
	*victim = -1
	var probe func(t float64)
	probe = func(t float64) {
		if *victim >= 0 || t > until {
			return
		}
		for _, ns := range rt.nodes {
			if ns.led != nil && ns.id != SinkNode &&
				len(ns.led.reports) >= 4 && ns.membership-t >= 20 {
				*victim = ns.id
				rt.net.MustNode(ns.id).Fail()
				return
			}
		}
		_ = rt.sched.Schedule(t+1, func() { probe(t + 1) })
	}
	_ = rt.sched.Schedule(from, func() { probe(from) })
	return victim
}

func failoverCfg() Config {
	cfg := DefaultConfig()
	cfg.Grid = geo.GridSpec{Rows: 6, Cols: 6, Spacing: 25}
	cfg.Seed = 102
	cfg.Radio.Reliable = wsn.DefaultReliableConfig()
	cfg.Failover = DefaultFailoverConfig()
	return cfg
}

func TestHeadFailoverMidCollection(t *testing.T) {
	// Kill the first cluster head mid-collection. With failover the
	// members elect the lowest alive ID, re-send their retained reports,
	// and the intrusion is still confirmed at the sink.
	cfg := failoverCfg()
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddShip(crossGridShip(t, cfg, 10, 150))
	victim := killFirstHead(rt, 140, 400)
	if err := rt.Run(450); err != nil {
		t.Fatal(err)
	}
	if *victim < 0 {
		t.Fatal("probe never found a cluster head to kill")
	}
	if rt.Failovers() == 0 {
		t.Fatal("head died mid-collection but no failover happened")
	}
	reports := rt.SinkReports()
	if len(reports) == 0 {
		t.Fatalf("no sink report despite failover (failovers=%d, cancelled=%d)",
			rt.Failovers(), rt.Cancelled())
	}
	for _, sr := range reports {
		if sr.Head == *victim {
			t.Errorf("dead head %d signed a sink report", *victim)
		}
	}
}

func TestNoFailoverLosesCollection(t *testing.T) {
	// Same kill without failover: the collection dies with the head and
	// is recorded as a dead-head cancellation, never a confirmation by
	// that head.
	cfg := failoverCfg()
	cfg.Failover = FailoverConfig{}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddShip(crossGridShip(t, cfg, 10, 150))
	victim := killFirstHead(rt, 140, 400)
	if err := rt.Run(450); err != nil {
		t.Fatal(err)
	}
	if *victim < 0 {
		t.Fatal("probe never found a cluster head to kill")
	}
	if rt.Failovers() != 0 {
		t.Errorf("failovers = %d with failover disabled", rt.Failovers())
	}
	deadHeadCancel := false
	for _, ev := range rt.Evaluations() {
		if ev.Head == *victim && ev.Err != nil {
			deadHeadCancel = true
		}
	}
	if !deadHeadCancel {
		t.Error("dead head's collection was not recorded as lost")
	}
	for _, sr := range rt.SinkReports() {
		if sr.Head == *victim {
			t.Errorf("dead head %d confirmed a detection", *victim)
		}
	}
}

func TestBurstLossReliableStillConfirms(t *testing.T) {
	// A Gilbert–Elliott channel averaging ~30% loss: the reliable
	// transport's backed-off retransmissions ride out the bursts and the
	// crossing is still confirmed.
	cfg := failoverCfg()
	cfg.Radio.LossProb = 0
	cfg.Faults.Burst = &fault.BurstLoss{
		MeanGoodS: 2.0, MeanBadS: 1.0, LossGood: 0.05, LossBad: 0.8,
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddShip(crossGridShip(t, cfg, 10, 150))
	if err := rt.Run(450); err != nil {
		t.Fatal(err)
	}
	if len(rt.SinkReports()) == 0 {
		t.Fatalf("no confirmation under burst loss with reliable transport (clusters=%d cancelled=%d)",
			rt.ClustersFormed(), rt.Cancelled())
	}
	st := rt.Network().Stats()
	if st.Retransmissions == 0 {
		t.Error("burst loss should force retransmissions")
	}
	if st.Lost == 0 {
		t.Error("burst channel never lost a frame")
	}
}

func TestSendErrorsCounted(t *testing.T) {
	// A member partitioned from its head gets a synchronous routing error
	// on report; the error must be counted, not discarded.
	cfg := DefaultConfig()
	cfg.Grid = geo.GridSpec{Rows: 1, Cols: 6, Spacing: 25}
	cfg.Seed = 9
	j := obs.NewJournal(0)
	cfg.Obs = obs.New()
	cfg.Obs.SetJournal(j)
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Make node 5 a member of head 0, then cut every route between them
	// (range 60 m covers two 25 m hops, so kill all four interior nodes).
	ns := rt.nodes[5]
	ns.headID = 0
	ns.membership = 1e9
	for id := 1; id <= 4; id++ {
		rt.net.MustNode(wsn.NodeID(id)).Fail()
	}
	rt.onNodeDetection(ns, rt.net.MustNode(5), detect.Report{Onset: 1, Energy: 4})
	if rt.SendErrors() != 1 {
		t.Errorf("SendErrors = %d, want 1", rt.SendErrors())
	}
	var nodes []int
	for _, ev := range j.Events() {
		if ev.Kind == obs.KindSendError {
			nodes = append(nodes, ev.Data.(obs.SendError).Node)
		}
	}
	if len(nodes) != 1 || nodes[0] != 5 {
		t.Errorf("send.error events from nodes %v, want one from node 5", nodes)
	}
}

// The resilience machinery must preserve the Workers determinism contract:
// identical seeds and identical fault plans produce bit-identical results
// for any worker count, even with failover, reliable transport, burst loss
// and mid-run crashes all active.
func TestFaultedRunBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]SinkReport, []Evaluation, int, wsn.Stats) {
		cfg := failoverCfg()
		cfg.Workers = workers
		cfg.Faults = fault.CrashFraction(cfg.Grid.NumNodes(), 0.1, 160, 2, 42, int(SinkNode))
		cfg.Faults.Burst = &fault.BurstLoss{
			MeanGoodS: 3.0, MeanBadS: 0.6, LossGood: 0.03, LossBad: 0.7,
		}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.AddShip(crossGridShip(t, cfg, 10, 150))
		if err := rt.Run(450); err != nil {
			t.Fatal(err)
		}
		return rt.SinkReports(), rt.Evaluations(), rt.Failovers(), rt.Network().Stats()
	}
	baseReports, baseEvals, baseFailovers, baseStats := run(1)
	for _, workers := range []int{0, 3} {
		reports, evals, failovers, stats := run(workers)
		if !reflect.DeepEqual(baseReports, reports) {
			t.Errorf("workers=%d: sink reports diverge under faults\nserial:   %+v\nparallel: %+v",
				workers, baseReports, reports)
		}
		if len(evals) != len(baseEvals) {
			t.Errorf("workers=%d: %d evaluations vs %d serial", workers, len(evals), len(baseEvals))
		}
		if failovers != baseFailovers {
			t.Errorf("workers=%d: %d failovers vs %d serial", workers, failovers, baseFailovers)
		}
		if stats != baseStats {
			t.Errorf("workers=%d: network stats diverge\nserial:   %+v\nparallel: %+v",
				workers, baseStats, stats)
		}
	}
}
