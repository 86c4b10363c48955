package sid

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/wsn"
)

// clusterFixture is a journaled failover runtime in which form has node 21
// set up a temporary cluster at t = 60 s (deadline 150 s) and its members,
// having joined by 61 s, each report a 10 kn crossing along column 3.
type clusterFixture struct {
	rt      *Runtime
	journal *obs.Journal
	// beats holds, per originating head, the whole seconds at which each
	// of its heartbeat floods first reached another node.
	beats map[wsn.NodeID][]float64
	// detect makes node id report the crossing at the current time.
	detect func(id wsn.NodeID)
}

const fixtureHead wsn.NodeID = 21

var fixtureMembers = []wsn.NodeID{8, 9, 10, 11, 14, 15, 16, 17, 20, 22, 23, 26, 27, 28, 29}

func newClusterFixture(t *testing.T) *clusterFixture {
	t.Helper()
	cfg := failoverCfg()
	f := &clusterFixture{journal: obs.NewJournal(obs.DefaultJournalCap), beats: map[wsn.NodeID][]float64{}}
	cfg.Obs = obs.New()
	cfg.Obs.SetJournal(f.journal)
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	seen := map[uint64]bool{}
	for _, n := range rt.net.Nodes() {
		next := n.OnMessage
		n.OnMessage = func(n *wsn.Node, msg wsn.Message) {
			if msg.Kind == KindHeartbeat && !seen[msg.Seq] {
				seen[msg.Seq] = true
				f.beats[msg.Src] = append(f.beats[msg.Src], math.Floor(rt.sched.Now()))
			}
			next(n, msg)
		}
	}
	ship := crossGridShip(t, cfg, 10, 30)
	f.detect = func(id wsn.NodeID) {
		ns := rt.nodes[id]
		sig := ship.SignalAt(ns.pos)
		rt.onNodeDetection(ns, rt.net.MustNode(id), detect.Report{Onset: sig.Arrival, Energy: sig.Amp})
	}
	return f
}

func (f *clusterFixture) form() {
	f.rt.sched.Run(60)
	f.detect(fixtureHead)
	f.rt.sched.Run(61) // deliver the invites
	for _, id := range fixtureMembers {
		f.detect(id)
	}
}

// events renders the journal's cluster-lifecycle and election events.
func (f *clusterFixture) events() []string {
	var got []string
	for _, ev := range f.journal.Events() {
		switch d := ev.Data.(type) {
		case obs.ClusterSetup:
			got = append(got, fmt.Sprintf("%g setup head %d deadline %g", ev.T, d.Head, d.Deadline))
		case obs.ClusterExtend:
			got = append(got, fmt.Sprintf("%g extend head %d deadline %g", ev.T, d.Head, d.Deadline))
		case obs.ClusterCancel:
			got = append(got, fmt.Sprintf("%g cancel head %d %s", ev.T, d.Head, d.Reason))
		case obs.ClusterEval:
			got = append(got, fmt.Sprintf("%g eval head %d reports %d detected %v", ev.T, d.Head, d.Reports, d.Detected))
		case obs.FailoverElect:
			got = append(got, fmt.Sprintf("%g elect old %d new %d", ev.T, d.Old, d.New))
		case obs.SinkReport:
			got = append(got, fmt.Sprintf("sink head %d trace %s", d.Head, d.Trace))
		}
	}
	return got
}

// every returns from, from+5, … up to and including to.
func every(from, to float64) []float64 {
	var s []float64
	for t := from; t <= to; t += heartbeatPeriod {
		s = append(s, t)
	}
	return s
}

// TestLateReportExtendsDeadlineOnce pins the one-time deadline extension. A
// report reaching the head 10 s before its deadline extends the collection
// by extendWindow under the same cluster key; the extension hands the role
// lease to a single new heartbeat loop; and a second late report does not
// extend it again.
func TestLateReportExtendsDeadlineOnce(t *testing.T) {
	f := newClusterFixture(t)
	f.form()
	rt := f.rt
	rt.sched.Run(140)
	f.detect(22) // reaches the head with 10 s of the window left
	rt.sched.Run(160)
	if m := rt.nodes[fixtureHead].membership; m != 165 {
		t.Errorf("head membership %g after the extension, want 165", m)
	}
	f.detect(fixtureHead) // 5 s before the extended deadline: no second extension
	rt.sched.Run(300)

	want := []string{
		"60 setup head 21 deadline 150",
		"150 extend head 21 deadline 165",
		fmt.Sprintf("165 eval head 21 reports %d detected true", len(fixtureMembers)+1),
		"sink head 21 trace " + obs.ClusterKey(int(fixtureHead), 150),
	}
	if got := f.events(); !slices.Equal(got, want) {
		t.Errorf("protocol events:\n got %q\nwant %q", got, want)
	}
	// One lease loop at a time: the first stops at the original deadline,
	// the extension's runs until the extended one.
	if got, want := f.beats[fixtureHead], append(every(65, 145), 155, 160); !slices.Equal(got, want) {
		t.Errorf("head heartbeats at %v, want %v", got, want)
	}
	if len(f.beats) != 1 {
		t.Errorf("heartbeats from %d nodes, want only the head's", len(f.beats))
	}
	if evals := rt.Evaluations(); len(evals) != 1 || evals[0].Time != 165 {
		t.Errorf("evaluations %+v, want one at 165 s", evals)
	}
}

// TestSteppedDownHeadStopsHeartbeats pins the end of a live head's lease
// when a lower-ID member of its cluster claims the role: the old head's
// heartbeat loop stops at its next beat, the claimant's runs until the
// claimant's collection deadline, and the old head re-sends its own report
// to the claimant like any other member.
func TestSteppedDownHeadStopsHeartbeats(t *testing.T) {
	f := newClusterFixture(t)
	f.form()
	rt := f.rt
	const claimant wsn.NodeID = 9
	rt.sched.Run(80)
	a := rt.nodes[claimant]
	rt.claimHead(a, a.electEpoch)
	deadline := a.membership
	rt.sched.Run(300)

	want := []string{
		"60 setup head 21 deadline 150",
		"80 elect old 21 new 9",
		fmt.Sprintf("%g eval head 9 reports %d detected true", deadline, len(fixtureMembers)+1),
		"sink head 9 trace " + obs.ClusterKey(int(fixtureHead), 150),
	}
	if got := f.events(); !slices.Equal(got, want) {
		t.Errorf("protocol events:\n got %q\nwant %q", got, want)
	}
	if got, want := f.beats[fixtureHead], every(65, 80); !slices.Equal(got, want) {
		t.Errorf("old head's heartbeats at %v, want %v", got, want)
	}
	if got, want := f.beats[claimant], every(85, math.Floor(deadline)); !slices.Equal(got, want) {
		t.Errorf("claimant's heartbeats at %v, want %v (deadline %g)", got, want, deadline)
	}
	if rt.nodes[fixtureHead].led != nil || rt.nodes[claimant].led != nil {
		t.Error("a node still heads a cluster after every deadline passed")
	}
}

// TestHeadMemBytesCountsClusterReports pins that a head's resident state
// includes the reports its cluster record holds (what sid.peak_node_bytes
// measures), and that they are released when the cluster ends.
func TestHeadMemBytesCountsClusterReports(t *testing.T) {
	f := newClusterFixture(t)
	rt := f.rt
	head, member := rt.nodes[fixtureHead], rt.nodes[fixtureMembers[0]]
	headBase, memberBase := head.memBytes(), member.memBytes()

	f.form()
	rt.sched.Run(100)
	n := len(head.led.reports)
	if n != len(fixtureMembers)+1 {
		t.Fatalf("head holds %d reports, want %d", n, len(fixtureMembers)+1)
	}
	if grew := head.memBytes() - headBase; grew < n*memReportBytes {
		t.Errorf("head's state grew %d B while holding %d reports, want at least %d B", grew, n, n*memReportBytes)
	}
	if b := member.memBytes(); b != memberBase {
		t.Errorf("member's state %d B, want %d B: members hold no reports", b, memberBase)
	}

	rt.sched.Run(300)
	if head.led != nil {
		t.Fatal("head still leads after its deadline")
	}
	if b := head.memBytes(); b != headBase {
		t.Errorf("head's state %d B after the cluster ended, want %d B", b, headBase)
	}
}
