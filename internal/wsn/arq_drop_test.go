package wsn

import "testing"

// TestReliableSenderDeathDeliveredNotDropped is the regression test for the
// ReliableDropped miscount: a sender that dies after its frame was consumed
// (only the ACKs were lost) must not be tallied as data loss. Before the
// fix the sender-death branch counted the drop unconditionally.
func TestReliableSenderDeathDeliveredNotDropped(t *testing.T) {
	net, sched := gridNet(t, 1, 2, 25, reliableRadio(0, 4), 1)
	delivered := 0
	net.MustNode(1).OnMessage = func(n *Node, msg Message) { delivered++ }
	// Deterministic loss: the first frame (the data frame) gets through,
	// every later frame (the receiver's ACK) is lost.
	frames := 0
	net.SetLossModel(func(now float64) bool {
		frames++
		return frames > 1
	})
	if err := net.Unicast(0, 1, "x", 1); err != nil {
		t.Fatalf("unicast: %v", err)
	}
	// Kill the sender after delivery but before the first retransmission
	// timer (60 ms, jitter ±20% → earliest 0.048 s).
	if err := sched.Schedule(0.03, func() { net.MustNode(0).Fail() }); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if delivered != 1 {
		t.Fatalf("delivered %d frames, want 1", delivered)
	}
	st := net.Stats()
	if st.ReliableDelivered != 1 {
		t.Errorf("ReliableDelivered = %d, want 1", st.ReliableDelivered)
	}
	if st.ReliableDropped != 0 {
		t.Errorf("ReliableDropped = %d, want 0: receiver consumed the frame", st.ReliableDropped)
	}
}

// TestReliableSenderDeathUndeliveredStillDropped pins the other side of the
// sender-death accounting: if the receiver never consumed the frame, the
// dead sender's hop is real data loss and must be counted.
func TestReliableSenderDeathUndeliveredStillDropped(t *testing.T) {
	net, sched := gridNet(t, 1, 2, 25, reliableRadio(0, 4), 1)
	delivered := 0
	net.MustNode(1).OnMessage = func(n *Node, msg Message) { delivered++ }
	net.SetLossModel(func(now float64) bool { return true }) // lose every frame
	if err := net.Unicast(0, 1, "x", 1); err != nil {
		t.Fatalf("unicast: %v", err)
	}
	if err := sched.Schedule(0.03, func() { net.MustNode(0).Fail() }); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if delivered != 0 {
		t.Fatalf("delivered %d frames, want 0", delivered)
	}
	st := net.Stats()
	if st.ReliableDropped != 1 {
		t.Errorf("ReliableDropped = %d, want 1: frame never reached the receiver", st.ReliableDropped)
	}
}
