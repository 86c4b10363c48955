package sid

import (
	"fmt"
	"slices"
	"testing"

	"github.com/sid-wsn/sid/internal/cluster"
	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/wsn"
)

// TestTakeoverStepsLiveHeadDown pins the failover paths that no crossing in
// the scenario corpus reaches. Member A of a live head X has missed X's
// heartbeats and claims the role. A re-accepts its own retained report, X
// steps down on A's takeover (so X's deadline closure evaluates nothing),
// the other members re-send to A, and A confirms under X's cluster key.
func TestTakeoverStepsLiveHeadDown(t *testing.T) {
	cfg := failoverCfg()
	j := obs.NewJournal(obs.DefaultJournalCap)
	cfg.Obs = obs.New()
	cfg.Obs.SetJournal(j)
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each report carries the wake-front arrival and amplitude at the node
	// of a 10 kn crossing along column 3 that has passed by t = 60 s.
	ship := crossGridShip(t, cfg, 10, 30)
	report := func(id wsn.NodeID) detect.Report {
		sig := ship.SignalAt(rt.nodes[id].pos)
		return detect.Report{Onset: sig.Arrival, Energy: sig.Amp}
	}
	const head, claimant wsn.NodeID = 21, 9
	members := []int{8, 9, 10, 11, 14, 15, 16, 17, 20, 22, 23, 26, 27, 28, 29}

	rt.sched.Run(60)
	x := rt.nodes[head]
	rep := report(head)
	// Dispatched, not detected: X retains no report to re-send.
	rt.dispatchReport(x, cluster.Report{Node: int(head), Row: x.row, Pos: x.pos, Onset: rep.Onset, Energy: rep.Energy})
	rt.sched.Run(61) // deliver the invites
	for _, id := range members {
		ns := rt.nodes[id]
		rt.onNodeDetection(ns, rt.net.MustNode(ns.id), report(ns.id))
	}
	rt.sched.Run(63) // deliver the reports to X
	a := rt.nodes[claimant]
	rt.claimHead(a, a.electEpoch)
	rt.sched.Run(200)

	var got []string
	accepted := map[int][]int{} // head → accepted nodes
	var resent []int
	for _, ev := range j.Events() {
		switch d := ev.Data.(type) {
		case obs.ClusterSetup:
			got = append(got, fmt.Sprintf("%g setup head %d deadline %g", ev.T, d.Head, d.Deadline))
		case obs.ClusterExtend:
			got = append(got, fmt.Sprintf("extend head %d", d.Head))
		case obs.ClusterCancel:
			got = append(got, fmt.Sprintf("cancel head %d reports %d %s", d.Head, d.Reports, d.Reason))
		case obs.ClusterEval:
			got = append(got, fmt.Sprintf("eval head %d reports %d detected %v", d.Head, d.Reports, d.Detected))
		case obs.FailoverElect:
			got = append(got, fmt.Sprintf("%g elect old %d new %d", ev.T, d.Old, d.New))
		case obs.SinkReport:
			got = append(got, fmt.Sprintf("sink head %d trace %s", d.Head, d.Trace))
		case obs.ReportAccept:
			accepted[d.Head] = append(accepted[d.Head], d.Node)
			if d.Head == d.Node && d.Head != int(head) {
				got = append(got, fmt.Sprintf("%g accept head %d own first %v", ev.T, d.Head, d.First))
			}
		case obs.ReportSend:
			if d.Resend {
				if d.Head != int(claimant) {
					t.Errorf("node %d re-sent to %d, want the claimant %d", d.Node, d.Head, claimant)
				}
				resent = append(resent, d.Node)
			}
		}
	}
	want := []string{
		"60 setup head 21 deadline 150",
		"63 elect old 21 new 9",
		"63 accept head 9 own first true",
		"eval head 9 reports 15 detected true",
		"sink head 9 trace " + obs.ClusterKey(int(head), 150),
	}
	if !slices.Equal(got, want) {
		t.Errorf("protocol events:\n got %q\nwant %q", got, want)
	}

	sorted := func(s []int) []int { s = slices.Clone(s); slices.Sort(s); return s }
	if w := sorted(append([]int{int(head)}, members...)); !slices.Equal(sorted(accepted[int(head)]), w) {
		t.Errorf("X accepted %v, want %v", sorted(accepted[int(head)]), w)
	}
	if !slices.Equal(sorted(accepted[int(claimant)]), members) {
		t.Errorf("A accepted %v, want %v", sorted(accepted[int(claimant)]), members)
	}
	if w := slices.DeleteFunc(slices.Clone(members), func(id int) bool { return id == int(claimant) }); !slices.Equal(sorted(resent), w) {
		t.Errorf("re-sent by %v, want every member but the claimant: %v", sorted(resent), w)
	}

	evals := rt.Evaluations()
	if len(evals) != 1 {
		t.Fatalf("%d evaluations, want one by the claimant: %+v", len(evals), evals)
	}
	ev := evals[0]
	var nodes []int
	for _, r := range ev.Reports {
		nodes = append(nodes, r.Node)
	}
	if ev.Head != claimant || ev.Err != nil || !ev.Result.Detected || !slices.Equal(sorted(nodes), members) {
		t.Errorf("evaluation by %d over %v (err %v, detected %v), want %d over %v",
			ev.Head, sorted(nodes), ev.Err, ev.Result.Detected, claimant, members)
	}
	if srs := rt.SinkReports(); len(srs) != 1 || srs[0].Head != claimant || srs[0].Reports != len(members) {
		t.Errorf("sink reports %+v, want one from %d over %d reports", srs, claimant, len(members))
	}
}
