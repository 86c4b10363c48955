package wsn

import (
	"fmt"
	"math"
)

// Time synchronization: a TPSN-style two-way message exchange run level by
// level down the routing tree. Each child sends a request stamped with its
// local time t1; the parent receives it at its local t2 and replies at t3;
// the child receives the reply at its local t4 and estimates the clock
// offset to its parent as ((t2−t1)+(t3−t4))/2, which cancels the symmetric
// part of the link delay. Asymmetric MAC jitter leaves a millisecond-scale
// residual that accumulates with tree depth — the realistic sync precision
// the SID speed estimator has to live with.

const (
	kindSyncReq  = "_sync.req"
	kindSyncResp = "_sync.resp"
)

type syncReq struct {
	T1 float64 // child's local send time
}

type syncResp struct {
	T1 float64 // echoed from the request
	T2 float64 // parent's local receive time
	T3 float64 // parent's local send time
}

// onSyncReq is a parent's side of the exchange: it stamps the request's
// arrival (t2) and replies at once (t3 == t2 up to CPU time, which the
// link delay model absorbs).
func (w *Network) onSyncReq(parent *Node, msg Message) {
	req, ok := msg.Payload.(syncReq)
	if !ok {
		return
	}
	t2 := parent.Now()
	resp := syncResp{T1: req.T1, T2: t2, T3: parent.Now()}
	_ = w.Unicast(parent.ID, msg.Src, kindSyncResp, resp)
}

// onSyncResp is a child's side: it stamps the reply's arrival (t4) and
// adjusts its clock by the estimated offset to its parent.
func (w *Network) onSyncResp(child *Node, msg Message) {
	resp, ok := msg.Payload.(syncResp)
	if !ok {
		return
	}
	t4 := child.Now()
	offset := ((resp.T2 - resp.T1) + (resp.T3 - t4)) / 2
	child.Clock.Adjust(offset)
}

// StartTimeSync schedules one synchronization wave over the tree: nodes at
// depth d initiate their exchange at now + d·levelGap, so parents are
// already synchronized when their children sync to them. The network's
// own dispatch hands the exchange's frames to the sync handlers, never to
// a node's OnMessage. Run the scheduler afterwards to execute the wave; it
// completes by now + (maxDepth+1)·levelGap. Returns the depth of the tree.
func (w *Network) StartTimeSync(t *Tree, levelGap float64) (int, error) {
	if levelGap <= 0 {
		return 0, fmt.Errorf("wsn: levelGap must be positive, got %g", levelGap)
	}
	maxDepth := 0
	for id, hops := range t.Hops {
		if hops <= 0 {
			continue
		}
		if hops > maxDepth {
			maxDepth = hops
		}
		nid := NodeID(id)
		at := w.Sched.Now() + float64(hops)*levelGap
		err := w.Sched.Schedule(at, func() {
			child := w.nodes[nid]
			if !child.Alive() {
				return
			}
			req := syncReq{T1: child.Now()}
			_ = w.Unicast(nid, t.Parent[nid], kindSyncReq, req)
		})
		if err != nil {
			return 0, err
		}
	}
	return maxDepth, nil
}

// ClockResiduals returns each node's clock error (local − true) at the
// current simulation time; index = node ID.
func (w *Network) ClockResiduals() []float64 {
	now := w.Sched.Now()
	out := make([]float64, len(w.nodes))
	for i, n := range w.nodes {
		out[i] = n.Clock.Local(now) - now
	}
	return out
}

// SyncRMS summarizes residuals relative to the root's clock (what matters
// for comparing timestamps between nodes): the RMS of (nodeᵢ − root).
func (w *Network) SyncRMS(root NodeID) float64 {
	res := w.ClockResiduals()
	if int(root) < 0 || int(root) >= len(res) {
		return math.NaN()
	}
	ref := res[root]
	var s float64
	n := 0
	for i, r := range res {
		if NodeID(i) == root || !w.nodes[i].Alive() {
			continue
		}
		d := r - ref
		s += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(s / float64(n))
}
