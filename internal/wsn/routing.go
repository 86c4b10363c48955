package wsn

import (
	"fmt"
	"slices"
	"strings"
)

// Tree is a breadth-first routing forest over the alive connectivity graph:
// one tree per root, with every reachable node attached to its hop-nearest
// root (ties go to the earlier root in Roots). Grown from the sink alone it
// is the tree the sink-level reporting path of §IV-A ("the final decision
// will be reported to the external user") runs over; grown from SelectRoots
// it partitions a large field into sub-clusters.
type Tree struct {
	Roots []NodeID
	// Root[i] is node i's root, -1 if unreachable or dead.
	Root []NodeID
	// Parent[i] is the next hop toward Root[i]; a root's parent is itself.
	Parent []NodeID
	// Hops[i] is the hop distance to Root[i], -1 if unreachable.
	Hops []int
}

// BuildTree runs one multi-source BFS from roots over the alive
// connectivity graph. Roots are seeded in argument order and neighbors
// expand in ID order, so the tree is a pure function of (roots, graph,
// liveness).
func (w *Network) BuildTree(roots ...NodeID) (*Tree, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("wsn: tree needs at least one root")
	}
	n := len(w.nodes)
	t := &Tree{
		Roots:  append([]NodeID(nil), roots...),
		Root:   make([]NodeID, n),
		Parent: make([]NodeID, n),
		Hops:   make([]int, n),
	}
	for i := range t.Parent {
		t.Root[i], t.Parent[i], t.Hops[i] = -1, -1, -1
	}
	for _, root := range roots {
		r, err := w.Node(root)
		if err != nil {
			return nil, err
		}
		if !r.Alive() {
			return nil, fmt.Errorf("wsn: tree root %d is dead", root)
		}
		if t.Parent[root] != -1 {
			return nil, fmt.Errorf("wsn: duplicate tree root %d", root)
		}
		t.Parent[root] = root
	}
	for _, id := range w.bfs(t.Parent, append([]NodeID(nil), roots...), -1) {
		if p := t.Parent[id]; p == id {
			t.Root[id], t.Hops[id] = id, 0
		} else {
			t.Root[id], t.Hops[id] = t.Root[p], t.Hops[p]+1
		}
	}
	return t, nil
}

// bfs walks the alive connectivity graph breadth-first from the nodes in
// queue, which the caller has already marked in parent (a start node is its
// own parent, -1 marks unvisited). Every node reached records its
// predecessor in parent. The walk stops as soon as it reaches stop (-1:
// never) and returns the visited nodes in visiting order.
func (w *Network) bfs(parent, queue []NodeID, stop NodeID) []NodeID {
	for i := 0; i < len(queue); i++ {
		for _, nb := range w.neighbors[queue[i]] {
			if parent[nb] != -1 || !w.nodes[nb].Alive() {
				continue
			}
			parent[nb] = queue[i]
			queue = append(queue, nb)
			if nb == stop {
				return queue
			}
		}
	}
	return queue
}

// PathToRoot returns the node sequence from id to its root (inclusive), or
// an error if id is disconnected.
func (t *Tree) PathToRoot(id NodeID) ([]NodeID, error) {
	if int(id) < 0 || int(id) >= len(t.Hops) {
		return nil, fmt.Errorf("wsn: no node %d in tree", id)
	}
	if t.Hops[id] < 0 {
		return nil, fmt.Errorf("wsn: node %d unreachable from root %s", id, strings.Trim(fmt.Sprint(t.Roots), "[]"))
	}
	return chain(t.Parent, id), nil
}

// chain follows parent pointers from id to the node that is its own parent
// and returns the nodes on the way, id first, in one exact-size slice.
func chain(parent []NodeID, id NodeID) []NodeID {
	n := 1
	for v := id; parent[v] != v; v = parent[v] {
		n++
	}
	path := make([]NodeID, 1, n)
	path[0] = id
	for parent[id] != id {
		id = parent[id]
		path = append(path, id)
	}
	return path
}

// shortestPath returns a BFS path from a to b over alive nodes, inclusive,
// or nil if disconnected. It walks on the network's reused scratch and
// then unmarks only the nodes the walk visited, so a send costs what the
// walk visits rather than the network's size.
func (w *Network) shortestPath(a, b NodeID) []NodeID {
	if a == b {
		return []NodeID{a}
	}
	if w.pathParent == nil {
		w.pathParent = make([]NodeID, len(w.nodes))
		for i := range w.pathParent {
			w.pathParent[i] = -1
		}
	}
	parent := w.pathParent
	parent[a] = a
	w.pathQueue = w.bfs(parent, append(w.pathQueue[:0], a), b)
	var path []NodeID
	if parent[b] != -1 {
		path = chain(parent, b)
		slices.Reverse(path)
	}
	for _, id := range w.pathQueue {
		parent[id] = -1
	}
	return path
}

// SendToRoot relays a message up the tree from from to its root, hop by
// hop with the radio's per-link delivery (see send). Delivery is
// asynchronous; the returned error covers only immediate failures
// (disconnection). trace is the cluster key stamped into the frame
// (Message.Trace) so the reliable transport's retransmission and drop
// events name the detection; "" stamps none.
func (w *Network) SendToRoot(t *Tree, from NodeID, kind string, payload interface{}, trace string) error {
	path, err := t.PathToRoot(from)
	if err != nil {
		return err
	}
	w.route(path, kind, payload, trace)
	return nil
}

// SendMultiHop relays a message from -> to along a shortest path over alive
// nodes (BFS at send time). Interior nodes relay without delivering; only
// the destination's handler runs. Cluster members use it to reach a
// temporary cluster head several hops away. trace is as for SendToRoot.
func (w *Network) SendMultiHop(from, to NodeID, kind string, payload interface{}, trace string) error {
	if _, err := w.Node(from); err != nil {
		return err
	}
	if _, err := w.Node(to); err != nil {
		return err
	}
	path := w.shortestPath(from, to)
	if path == nil {
		return fmt.Errorf("wsn: no path %d -> %d", from, to)
	}
	w.route(path, kind, payload, trace)
	return nil
}

// route originates one message from path's first node to its last and
// relays it.
func (w *Network) route(path []NodeID, kind string, payload interface{}, trace string) {
	from, to := path[0], path[len(path)-1]
	w.relay(path, Message{Seq: w.NextSeq(), Kind: kind, Src: from, From: from, To: to, Trace: trace, Payload: payload})
}

// relay carries msg along path, which starts at the node holding it: one
// send per link, chained at each arrival. Only the last node delivers.
func (w *Network) relay(path []NodeID, msg Message) {
	cur := w.nodes[path[0]]
	if len(path) == 1 {
		w.deliver(cur, msg)
		return
	}
	w.send(cur, w.nodes[path[1]], msg, func(_ *Node, m Message) { w.relay(path[1:], m) })
}
