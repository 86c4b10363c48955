package wsn

import "fmt"

// Tree is a BFS routing tree rooted at the sink: every alive, connected
// node knows its parent toward the root and its hop count. The sink-level
// reporting path of §IV-A ("the final decision will be reported to the
// external user") runs over this tree.
type Tree struct {
	Root   NodeID
	Parent []NodeID // Parent[i] = next hop toward root; root's parent is itself
	Hops   []int    // Hops[i] = hop distance to root; -1 if unreachable
}

// BuildTree computes a BFS tree over the current connectivity graph,
// skipping dead nodes.
func (w *Network) BuildTree(root NodeID) (*Tree, error) {
	r, err := w.Node(root)
	if err != nil {
		return nil, err
	}
	if !r.Alive() {
		return nil, fmt.Errorf("wsn: tree root %d is dead", root)
	}
	t := &Tree{
		Root:   root,
		Parent: make([]NodeID, len(w.nodes)),
		Hops:   make([]int, len(w.nodes)),
	}
	for i := range t.Hops {
		t.Hops[i] = -1
		t.Parent[i] = -1
	}
	t.Hops[root] = 0
	t.Parent[root] = root
	queue := []NodeID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range w.Neighbors(cur) {
			if !w.nodes[nb].Alive() || t.Hops[nb] != -1 {
				continue
			}
			t.Hops[nb] = t.Hops[cur] + 1
			t.Parent[nb] = cur
			queue = append(queue, nb)
		}
	}
	return t, nil
}

// PathToRoot returns the node sequence from id to the root (inclusive), or
// an error if id is disconnected.
func (t *Tree) PathToRoot(id NodeID) ([]NodeID, error) {
	if int(id) < 0 || int(id) >= len(t.Hops) {
		return nil, fmt.Errorf("wsn: no node %d in tree", id)
	}
	if t.Hops[id] < 0 {
		return nil, fmt.Errorf("wsn: node %d unreachable from root %d", id, t.Root)
	}
	path := []NodeID{id}
	for id != t.Root {
		id = t.Parent[id]
		path = append(path, id)
	}
	return path, nil
}

// SendToRoot forwards a message hop by hop along the tree with link-layer
// retries at each hop. Delivery is asynchronous; the returned error covers
// only immediate failures (disconnection).
func (w *Network) SendToRoot(t *Tree, from NodeID, kind string, payload interface{}) error {
	return w.SendToRootTraced(t, from, kind, payload, "")
}

// SendToRootTraced is SendToRoot with a cluster key stamped into the
// frame (Message.Trace) so the reliable transport's retransmission and
// drop events name the detection's cluster. An empty trace is exactly
// SendToRoot.
func (w *Network) SendToRootTraced(t *Tree, from NodeID, kind string, payload interface{}, trace string) error {
	path, err := t.PathToRoot(from)
	if err != nil {
		return err
	}
	if len(path) == 1 {
		// Already at the root: deliver locally.
		root := w.nodes[t.Root]
		msg := Message{Seq: w.NextSeq(), Kind: kind, Src: from, From: from, To: t.Root, Trace: trace, Payload: payload}
		w.deliver(root, msg)
		return nil
	}
	msg := Message{Seq: w.NextSeq(), Kind: kind, Src: from, To: t.Root, Trace: trace, Payload: payload}
	w.forwardAlongTree(t, w.nodes[from], msg)
	return nil
}

// forwardAlongTree sends one hop toward the root and chains the next hop in
// the receiving node's delivery path. Interior hops deliver only at the
// destination.
func (w *Network) forwardAlongTree(t *Tree, cur *Node, msg Message) {
	if cur.ID == t.Root {
		w.deliver(cur, msg)
		return
	}
	parent := t.Parent[cur.ID]
	if parent < 0 {
		return
	}
	next := w.nodes[parent]
	cont := func(n *Node, m Message) { w.forwardAlongTree(t, n, m) }
	if w.Radio.Reliable.Enabled {
		w.sendReliable(cur, next, msg, cont)
		return
	}
	// Blind link-layer retries.
	sent := false
	for attempt := 0; attempt <= w.Radio.Retries && !sent; attempt++ {
		sent = w.transmitRelay(cur, next, msg, cont)
	}
}

// transmitRelay is transmit with a custom continuation instead of handler
// delivery, used for multi-hop forwarding.
func (w *Network) transmitRelay(from, to *Node, msg Message, cont func(*Node, Message)) bool {
	if !from.Alive() {
		return false
	}
	w.ctr.sent.Inc()
	if from.Battery != nil {
		from.Battery.Consume(CostTx)
	}
	if w.lossy() {
		w.ctr.lost.Inc()
		return false
	}
	msg.From = from.ID
	toEpoch := to.epoch
	_ = w.Sched.After(w.frameDelay(), func() {
		if !to.Alive() || to.epoch != toEpoch {
			return
		}
		if to.Battery != nil {
			to.Battery.Consume(CostRx)
		}
		cont(to, msg)
	})
	return true
}

// SendMultiHop forwards a message from -> to along a shortest path over
// alive nodes (BFS at send time), with link-layer retries per hop. Interior
// nodes relay without delivering; only the destination's handler runs.
// Used by cluster members to reach a temporary cluster head several hops
// away.
func (w *Network) SendMultiHop(from, to NodeID, kind string, payload interface{}) error {
	return w.SendMultiHopTraced(from, to, kind, payload, "")
}

// SendMultiHopTraced is SendMultiHop with a detection-trace wire key
// stamped into the frame (see SendToRootTraced).
func (w *Network) SendMultiHopTraced(from, to NodeID, kind string, payload interface{}, trace string) error {
	src, err := w.Node(from)
	if err != nil {
		return err
	}
	dst, err := w.Node(to)
	if err != nil {
		return err
	}
	if from == to {
		msg := Message{Seq: w.NextSeq(), Kind: kind, Src: from, From: from, To: to, Trace: trace, Payload: payload}
		w.deliver(dst, msg)
		return nil
	}
	path := w.shortestPath(from, to)
	if path == nil {
		return fmt.Errorf("wsn: no path %d -> %d", from, to)
	}
	msg := Message{Seq: w.NextSeq(), Kind: kind, Src: from, To: to, Trace: trace, Payload: payload}
	w.relayAlongPath(path, 0, src, msg)
	return nil
}

// relayAlongPath forwards msg from path[idx] to path[idx+1] and continues
// recursively at delivery time.
func (w *Network) relayAlongPath(path []NodeID, idx int, cur *Node, msg Message) {
	if cur.ID == path[len(path)-1] {
		w.deliver(cur, msg)
		return
	}
	next := w.nodes[path[idx+1]]
	cont := func(n *Node, m Message) { w.relayAlongPath(path, idx+1, n, m) }
	if w.Radio.Reliable.Enabled {
		w.sendReliable(cur, next, msg, cont)
		return
	}
	sent := false
	for attempt := 0; attempt <= w.Radio.Retries && !sent; attempt++ {
		sent = w.transmitRelay(cur, next, msg, cont)
	}
}

// shortestPath returns a BFS path from a to b over alive nodes, inclusive,
// or nil if disconnected.
func (w *Network) shortestPath(a, b NodeID) []NodeID {
	prev := make([]NodeID, len(w.nodes))
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := []NodeID{a}
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range w.Neighbors(cur) {
			if !w.nodes[nb].Alive() || prev[nb] != -1 {
				continue
			}
			prev[nb] = cur
			if nb == b {
				found = true
				break
			}
			queue = append(queue, nb)
		}
	}
	if !found {
		return nil
	}
	var rev []NodeID
	for cur := b; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == a {
			break
		}
	}
	path := make([]NodeID, len(rev))
	for i, id := range rev {
		path[len(rev)-1-i] = id
	}
	return path
}

// HopDistance returns the minimum hop count between two nodes over alive
// nodes, or -1 if disconnected.
func (w *Network) HopDistance(a, b NodeID) int {
	if int(a) < 0 || int(a) >= len(w.nodes) || int(b) < 0 || int(b) >= len(w.nodes) {
		return -1
	}
	if a == b {
		return 0
	}
	dist := make([]int, len(w.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []NodeID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range w.Neighbors(cur) {
			if !w.nodes[nb].Alive() || dist[nb] != -1 {
				continue
			}
			dist[nb] = dist[cur] + 1
			if nb == b {
				return dist[nb]
			}
			queue = append(queue, nb)
		}
	}
	return -1
}

// NodesWithinHops returns all alive nodes within maxHops of center
// (excluding center itself), the membership rule for temporary clusters.
func (w *Network) NodesWithinHops(center NodeID, maxHops int) []NodeID {
	if int(center) < 0 || int(center) >= len(w.nodes) || maxHops <= 0 {
		return nil
	}
	dist := make([]int, len(w.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[center] = 0
	queue := []NodeID{center}
	var out []NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if dist[cur] >= maxHops {
			continue
		}
		for _, nb := range w.Neighbors(cur) {
			if !w.nodes[nb].Alive() || dist[nb] != -1 {
				continue
			}
			dist[nb] = dist[cur] + 1
			out = append(out, nb)
			queue = append(queue, nb)
		}
	}
	return out
}
