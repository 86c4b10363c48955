package wsn

import (
	"math"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sim"
)

func reliableRadio(loss float64, maxRetrans int) RadioConfig {
	r := perfectRadio()
	r.LossProb = loss
	rc := DefaultReliableConfig()
	rc.MaxRetrans = maxRetrans
	r.Reliable = rc
	return r
}

func TestReliableConfigValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	positions := geo.GridSpec{Rows: 1, Cols: 2, Spacing: 25}.Positions()
	if _, err := NewNetwork(sched, positions, reliableRadio(0, -1)); err == nil {
		t.Error("expected reliable validation error for MaxRetrans -1")
	}
	// Disabled zero value validates regardless of garbage fields.
	r := perfectRadio()
	r.Reliable = ReliableConfig{Enabled: false, MaxRetrans: -1}
	if _, err := NewNetwork(sched, positions, r); err != nil {
		t.Errorf("disabled reliable config should not validate: %v", err)
	}
}

// TestReliableBackoffSchedule pins the retransmission timer: each wait is
// 60 ms doubled per retransmission, capped at 1 s (binding from the fifth),
// with ±20% jitter, and the hop is abandoned one wait after the last
// retransmission.
func TestReliableBackoffSchedule(t *testing.T) {
	const maxRetrans = 6
	net, sched := gridNet(t, 1, 2, 25, reliableRadio(0, maxRetrans), 1)
	j := obs.NewJournal(0)
	col := obs.New()
	col.SetJournal(j)
	net.SetCollector(col)
	net.MustNode(1).Fail()
	if err := net.Unicast(0, 1, "x", nil); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()

	var retrans []obs.ArqHop
	var times []float64
	var drop *obs.Event
	for _, ev := range j.Events() {
		switch ev.Kind {
		case obs.KindArqRetransmit:
			if drop != nil {
				t.Fatalf("retransmission at %g s after the drop", ev.T)
			}
			retrans = append(retrans, ev.Data.(obs.ArqHop))
			times = append(times, ev.T)
		case obs.KindArqDrop:
			ev := ev
			drop = &ev
		}
	}
	if len(retrans) != maxRetrans {
		t.Fatalf("%d retransmissions, want %d", len(retrans), maxRetrans)
	}
	for i, h := range retrans {
		k := i + 1
		if h.Attempt != k {
			t.Errorf("retransmission %d has Attempt %d", k, h.Attempt)
		}
		nominal := math.Min(0.06*math.Pow(2, float64(k)), 1)
		if h.Wait < 0.8*nominal || h.Wait > 1.2*nominal {
			t.Errorf("retransmission %d waits %g s, want %g s ±20%%", k, h.Wait, nominal)
		}
	}
	// The first retransmission fires one unjournaled 60 ms wait after send.
	if times[0] < 0.8*0.06 || times[0] > 1.2*0.06 {
		t.Errorf("first retransmission at %g s, want 0.06 s ±20%%", times[0])
	}
	if drop == nil {
		t.Fatal("no arq.drop after the last retransmission")
	}
	d := drop.Data.(obs.ArqDrop)
	if d.Reason != "retrans-exhausted" || d.Received {
		t.Errorf("drop = %+v, want an unreceived retrans-exhausted drop", d)
	}
	last := len(retrans) - 1
	if want := times[last] + retrans[last].Wait; math.Abs(drop.T-want) > 1e-9 {
		t.Errorf("drop at %g s, want the last wait's end %g s", drop.T, want)
	}
}

func TestReliableUnicastOvercomesLoss(t *testing.T) {
	net, sched := gridNet(t, 1, 2, 25, reliableRadio(0.5, 6), 3)
	delivered := 0
	net.MustNode(1).OnMessage = func(n *Node, msg Message) { delivered++ }
	const sends = 100
	for i := 0; i < sends; i++ {
		if err := net.Unicast(0, 1, "x", i); err != nil {
			t.Fatalf("reliable unicast returned sync error: %v", err)
		}
	}
	sched.RunAll()
	// 7 attempts at 50% loss: effectively everything arrives, exactly once.
	if delivered < sends-1 {
		t.Errorf("delivered %d/%d", delivered, sends)
	}
	st := net.Stats()
	if st.Retransmissions == 0 {
		t.Error("expected retransmissions at 50% loss")
	}
	if st.Acks == 0 {
		t.Error("expected ACK frames")
	}
	if st.ReliableDelivered != delivered {
		t.Errorf("ReliableDelivered = %d, handler saw %d", st.ReliableDelivered, delivered)
	}
}

func TestReliableNoDuplicateDeliveries(t *testing.T) {
	// Heavy loss makes ACK loss (and thus retransmission of already
	// delivered frames) common; duplicate suppression must keep the
	// handler at one call per send.
	net, sched := gridNet(t, 1, 2, 25, reliableRadio(0.4, 8), 9)
	got := make(map[int]int)
	net.MustNode(1).OnMessage = func(n *Node, msg Message) { got[msg.Payload.(int)]++ }
	const sends = 200
	for i := 0; i < sends; i++ {
		if err := net.Unicast(0, 1, "x", i); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunAll()
	for payload, count := range got {
		if count != 1 {
			t.Fatalf("payload %d delivered %d times", payload, count)
		}
	}
	if len(got) < sends-1 {
		t.Errorf("delivered %d/%d distinct payloads", len(got), sends)
	}
}

func TestReliableGivesUpAfterBound(t *testing.T) {
	net, sched := gridNet(t, 1, 2, 25, reliableRadio(0.9, 1), 5)
	delivered := 0
	net.MustNode(1).OnMessage = func(n *Node, msg Message) { delivered++ }
	const sends = 50
	for i := 0; i < sends; i++ {
		if err := net.Unicast(0, 1, "x", i); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunAll()
	st := net.Stats()
	// Two attempts at 90% loss: ~81% of sends are abandoned.
	if st.ReliableDropped == 0 {
		t.Fatal("expected drops after the retransmission bound")
	}
	if st.ReliableDropped+st.ReliableDelivered != sends {
		t.Errorf("dropped %d + delivered %d != %d sends",
			st.ReliableDropped, st.ReliableDelivered, sends)
	}
	if delivered != st.ReliableDelivered {
		t.Errorf("handler saw %d, stats say %d", delivered, st.ReliableDelivered)
	}
}

func TestReliableMultiHopPaths(t *testing.T) {
	// 1×6 chain at 50% loss: SendMultiHop and SendToRoot must still get
	// through with per-hop ARQ.
	net, sched := gridNet(t, 1, 6, 25, reliableRadio(0.5, 8), 21)
	got := 0
	interior := 0
	for _, n := range net.Nodes() {
		n.OnMessage = func(nd *Node, msg Message) {
			if nd.ID == 5 {
				got++
			} else {
				interior++
			}
		}
	}
	for i := 0; i < 20; i++ {
		if err := net.SendMultiHop(0, 5, "report", i, ""); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunAll()
	if got < 19 {
		t.Errorf("destination received %d/20", got)
	}
	if interior != 0 {
		t.Errorf("interior nodes delivered %d messages", interior)
	}

	tree, err := net.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	rootGot := 0
	net.MustNode(0).OnMessage = func(n *Node, msg Message) { rootGot++ }
	for i := 0; i < 20; i++ {
		if err := net.SendToRoot(tree, 5, "up", i, ""); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunAll()
	if rootGot < 19 {
		t.Errorf("root received %d/20", rootGot)
	}
}

func TestReliableEnergyAccounted(t *testing.T) {
	net, sched := gridNet(t, 1, 2, 25, reliableRadio(0, 2), 1)
	b0, _ := NewBattery(10)
	b1, _ := NewBattery(10)
	net.MustNode(0).Battery = b0
	net.MustNode(1).Battery = b1
	if err := net.Unicast(0, 1, "x", nil); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	// Lossless: one data frame (0: tx, 1: rx) and one ACK (1: tx, 0: rx).
	if b0.Used(CostTx) != txJ || b0.Used(CostRx) != rxJ {
		t.Errorf("sender energy tx=%g rx=%g", b0.Used(CostTx), b0.Used(CostRx))
	}
	if b1.Used(CostTx) != txJ || b1.Used(CostRx) != rxJ {
		t.Errorf("receiver energy tx=%g rx=%g", b1.Used(CostTx), b1.Used(CostRx))
	}
	if net.Stats().Acks != 1 {
		t.Errorf("Acks = %d", net.Stats().Acks)
	}
}

func TestFailDropsInFlightFrames(t *testing.T) {
	// A frame in flight toward a node that fails — and revives — before
	// delivery must be lost: the radio was down when it arrived.
	net, sched := gridNet(t, 1, 2, 25, perfectRadio(), 1)
	delivered := 0
	net.MustNode(1).OnMessage = func(n *Node, msg Message) { delivered++ }
	if err := net.Unicast(0, 1, "x", nil); err != nil {
		t.Fatal(err)
	}
	// The frame is now scheduled ~5 ms out. Crash and immediately revive.
	net.MustNode(1).Fail()
	net.MustNode(1).Revive()
	sched.RunAll()
	if delivered != 0 {
		t.Error("frame sent to the previous incarnation was delivered")
	}
	// A fresh send to the revived node goes through.
	if err := net.Unicast(0, 1, "x", nil); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if delivered != 1 {
		t.Errorf("revived node deliveries = %d, want 1", delivered)
	}
}

func TestReliableRetransmissionReachesRevivedNode(t *testing.T) {
	// ARQ retransmissions are fresh frames: one sent after a crash+revive
	// reaches the new incarnation even though the original was lost.
	radio := reliableRadio(0, 4)
	net, sched := gridNet(t, 1, 2, 25, radio, 1)
	delivered := 0
	net.MustNode(1).OnMessage = func(n *Node, msg Message) { delivered++ }
	if err := net.Unicast(0, 1, "x", nil); err != nil {
		t.Fatal(err)
	}
	net.MustNode(1).Fail()
	// Revive after the first frame would have arrived but before the
	// first retransmission timeout (60 ms).
	if err := sched.After(0.03, func() { net.MustNode(1).Revive() }); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if delivered != 1 {
		t.Errorf("deliveries = %d, want 1 via retransmission", delivered)
	}
	if net.Stats().Retransmissions == 0 {
		t.Error("expected a retransmission to the revived node")
	}
}
