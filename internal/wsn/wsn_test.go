package wsn

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sim"
)

// gridNet builds a rows×cols grid network with the given spacing and a
// perfect or lossy radio.
func gridNet(t *testing.T, rows, cols int, spacing float64, radio RadioConfig, seed int64) (*Network, *sim.Scheduler) {
	t.Helper()
	g := geo.GridSpec{Rows: rows, Cols: cols, Spacing: spacing}
	sched := sim.NewScheduler(seed)
	net, err := NewNetwork(sched, g.Positions(), radio)
	if err != nil {
		t.Fatal(err)
	}
	return net, sched
}

func perfectRadio() RadioConfig {
	return RadioConfig{Range: 30, LossProb: 0, BaseDelay: 0.005, JitterStd: 0, Retries: 0}
}

func TestNewNetworkValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	if _, err := NewNetwork(nil, []geo.Vec2{{}}, DefaultRadioConfig()); err == nil {
		t.Error("expected error for nil scheduler")
	}
	if _, err := NewNetwork(sched, nil, DefaultRadioConfig()); err == nil {
		t.Error("expected error for no positions")
	}
	bad := []RadioConfig{
		{Range: 0},
		{Range: 10, LossProb: 1},
		{Range: 10, LossProb: -0.1},
		{Range: 10, BaseDelay: -1},
		{Range: 10, JitterStd: -1},
		{Range: 10, Retries: -1},
	}
	for i, r := range bad {
		if _, err := NewNetwork(sched, []geo.Vec2{{}}, r); err == nil {
			t.Errorf("case %d: expected radio validation error", i)
		}
	}
}

func TestNeighborsGrid(t *testing.T) {
	net, _ := gridNet(t, 3, 3, 25, perfectRadio(), 1)
	// Center node (1,1) = id 4: 4-connected within 30 m of 25 m spacing.
	nbs := net.Neighbors(4)
	if len(nbs) != 4 {
		t.Errorf("center neighbors = %v, want 4", nbs)
	}
	// Corner node 0: 2 neighbors.
	if nbs := net.Neighbors(0); len(nbs) != 2 {
		t.Errorf("corner neighbors = %v, want 2", nbs)
	}
	if nbs := net.Neighbors(NodeID(99)); nbs != nil {
		t.Errorf("out-of-range ID neighbors = %v", nbs)
	}
}

// pairwiseNeighbors is the reference neighbour build: every ordered pair
// under the same Dist <= Range rule, in ascending ID order.
func pairwiseNeighbors(pos []geo.Vec2, radioRange float64) [][]NodeID {
	out := make([][]NodeID, len(pos))
	for i, a := range pos {
		for j, b := range pos {
			if i != j && a.Dist(b) <= radioRange {
				out[i] = append(out[i], NodeID(j))
			}
		}
	}
	return out
}

// TestNeighborsMatchPairwise: the index-built neighbour lists equal the
// pairwise build, including pairs at exactly the radio range and layouts
// far sparser than the range.
func TestNeighborsMatchPairwise(t *testing.T) {
	grid := func(rows, cols int, spacing float64, origin geo.Vec2) []geo.Vec2 {
		return geo.GridSpec{Rows: rows, Cols: cols, Spacing: spacing, Origin: origin}.Positions()
	}
	random := func(seed int64, n int, side float64) []geo.Vec2 {
		rng := rand.New(rand.NewSource(seed))
		pos := make([]geo.Vec2, n)
		for i := range pos {
			pos[i] = geo.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		return pos
	}
	cases := []struct {
		name       string
		pos        []geo.Vec2
		radioRange float64
	}{
		{"1x1", grid(1, 1, 25, geo.Vec2{}), 60},
		{"1xN", grid(1, 50, 25, geo.Vec2{}), 60},
		{"100x100", grid(100, 100, 25, geo.Vec2{}), 60},
		// 20 m and 12 m spacings put pairs at exactly 60 m: three steps
		// along an axis, and the (36, 48) diagonal.
		{"exact-range", grid(15, 15, 20, geo.Vec2{}), 60},
		{"exact-range-offset", grid(15, 15, 20, geo.Vec2{X: 0.1, Y: -7.3}), 60},
		{"exact-diagonal", grid(12, 12, 12, geo.Vec2{X: 1e3 + 0.3, Y: 0.7}), 60},
		{"out-of-range", grid(4, 4, 61, geo.Vec2{}), 60},
		{"far-apart", grid(1, 3, 1e9, geo.Vec2{}), 60},
		{"random-dense", random(1, 400, 300), 60},
		{"random-sparse", random(2, 300, 5000), 60},
		{"random-short-range", random(3, 500, 1000), 7.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			radio := DefaultRadioConfig()
			radio.Range = c.radioRange
			net, err := NewNetwork(sim.NewScheduler(1), c.pos, radio)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range pairwiseNeighbors(c.pos, c.radioRange) {
				if got := net.Neighbors(NodeID(i)); !reflect.DeepEqual(got, want) {
					t.Fatalf("node %d: neighbors %v, pairwise %v", i, got, want)
				}
			}
		})
	}
}

func TestNodeLookup(t *testing.T) {
	net, _ := gridNet(t, 2, 2, 25, perfectRadio(), 1)
	if _, err := net.Node(0); err != nil {
		t.Error(err)
	}
	if _, err := net.Node(4); err == nil {
		t.Error("expected error for unknown node")
	}
	if _, err := net.Node(-1); err == nil {
		t.Error("expected error for negative ID")
	}
	if net.NumNodes() != 4 {
		t.Errorf("NumNodes = %d", net.NumNodes())
	}
}

func TestUnicastDelivery(t *testing.T) {
	net, sched := gridNet(t, 1, 2, 25, perfectRadio(), 1)
	var got []Message
	net.MustNode(1).OnMessage = func(n *Node, msg Message) { got = append(got, msg) }
	if err := net.Unicast(0, 1, "hello", 42); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	m := got[0]
	if m.Kind != "hello" || m.Src != 0 || m.From != 0 || m.To != 1 || m.Payload.(int) != 42 {
		t.Errorf("message = %+v", m)
	}
	if net.Stats().Delivered != 1 || net.Stats().Sent != 1 {
		t.Errorf("stats = %+v", net.Stats())
	}
}

func TestUnicastOutOfRange(t *testing.T) {
	net, _ := gridNet(t, 1, 3, 25, perfectRadio(), 1)
	// Node 0 to node 2 is 50 m > 30 m range.
	if err := net.Unicast(0, 2, "x", nil); err == nil {
		t.Error("expected out-of-range error")
	}
	if err := net.Unicast(0, 9, "x", nil); err == nil {
		t.Error("expected unknown-node error")
	}
}

func TestUnicastRetriesOvercomeLoss(t *testing.T) {
	radio := perfectRadio()
	radio.LossProb = 0.5
	radio.Retries = 10
	net, sched := gridNet(t, 1, 2, 25, radio, 7)
	delivered := 0
	net.MustNode(1).OnMessage = func(n *Node, msg Message) { delivered++ }
	failures := 0
	for i := 0; i < 100; i++ {
		if err := net.Unicast(0, 1, "x", i); err != nil {
			failures++
		}
	}
	sched.RunAll()
	// With 11 attempts at 50% loss, effectively everything goes through.
	if failures > 1 {
		t.Errorf("%d unicast failures", failures)
	}
	if delivered < 99 {
		t.Errorf("delivered %d/100", delivered)
	}
	if net.Stats().Lost == 0 {
		t.Error("expected some lost frames at 50% loss")
	}
}

func TestDeadNodeNeitherSendsNorReceives(t *testing.T) {
	net, sched := gridNet(t, 1, 2, 25, perfectRadio(), 1)
	delivered := 0
	net.MustNode(1).OnMessage = func(n *Node, msg Message) { delivered++ }
	net.MustNode(1).Fail()
	_ = net.Unicast(0, 1, "x", nil)
	sched.RunAll()
	if delivered != 0 {
		t.Error("dead node received a message")
	}
	net.MustNode(1).Revive()
	if err := net.Unicast(0, 1, "x", nil); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if delivered != 1 {
		t.Error("revived node should receive")
	}
}

func TestFloodReachesHopLimit(t *testing.T) {
	// 1×6 line, range 30 at 25 m spacing → chain topology.
	net, sched := gridNet(t, 1, 6, 25, perfectRadio(), 1)
	got := make(map[NodeID]int)
	for _, n := range net.Nodes() {
		id := n.ID
		n.OnMessage = func(_ *Node, msg Message) { got[id]++ }
	}
	if err := net.Flood(0, 3, "alarm", nil); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	// Nodes 1, 2, 3 are within 3 hops; 4 and 5 are not. Node 0 originated.
	for _, id := range []NodeID{1, 2, 3} {
		if got[id] != 1 {
			t.Errorf("node %d deliveries = %d, want 1", id, got[id])
		}
	}
	for _, id := range []NodeID{0, 4, 5} {
		if got[id] != 0 {
			t.Errorf("node %d deliveries = %d, want 0", id, got[id])
		}
	}
	// Six hops — the SID temporary-cluster radius — covers the whole line.
	clear(got)
	if err := net.Flood(0, 6, "alarm", nil); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	for id := NodeID(1); id < 6; id++ {
		if got[id] != 1 {
			t.Errorf("six-hop flood: node %d deliveries = %d, want 1", id, got[id])
		}
	}
}

func TestFloodDuplicateSuppression(t *testing.T) {
	net, sched := gridNet(t, 3, 3, 25, perfectRadio(), 1)
	got := make(map[NodeID]int)
	for _, n := range net.Nodes() {
		id := n.ID
		n.OnMessage = func(_ *Node, msg Message) { got[id]++ }
	}
	if err := net.Flood(4, 4, "alarm", nil); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	for id, c := range got {
		if c != 1 {
			t.Errorf("node %d received %d copies", id, c)
		}
	}
	if len(got) != 8 {
		t.Errorf("flood reached %d nodes, want 8", len(got))
	}
	if net.Stats().Duplicate == 0 {
		t.Error("expected duplicate suppressions in a dense flood")
	}
}

func TestFloodValidation(t *testing.T) {
	net, _ := gridNet(t, 1, 2, 25, perfectRadio(), 1)
	if err := net.Flood(0, 0, "x", nil); err == nil {
		t.Error("expected error for zero TTL")
	}
	if err := net.Flood(99, 1, "x", nil); err == nil {
		t.Error("expected error for unknown origin")
	}
}

func TestBuildTreeAndPaths(t *testing.T) {
	net, _ := gridNet(t, 3, 3, 25, perfectRadio(), 1)
	tree, err := net.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Hops[0] != 0 || tree.Parent[0] != 0 {
		t.Errorf("root entry wrong: %+v", tree)
	}
	// Opposite corner (2,2) = id 8 is 4 hops away in a 4-connected grid.
	if tree.Hops[8] != 4 {
		t.Errorf("corner hops = %d, want 4", tree.Hops[8])
	}
	path, err := tree.PathToRoot(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 5 || path[0] != 8 || path[len(path)-1] != 0 {
		t.Errorf("path = %v", path)
	}
	if _, err := tree.PathToRoot(99); err == nil {
		t.Error("expected error for unknown node")
	}
	if _, err := net.BuildTree(99); err == nil {
		t.Error("expected error for unknown root")
	}
	// With both of the root's neighbors dead the far corner is cut off.
	net.MustNode(1).Fail()
	net.MustNode(3).Fail()
	if tree, err = net.BuildTree(0); err != nil {
		t.Fatal(err)
	}
	if tree.Hops[8] != -1 || tree.Root[8] != -1 {
		t.Errorf("disconnected corner: hops %d root %d, want -1/-1", tree.Hops[8], tree.Root[8])
	}
}

func TestBuildTreeSkipsDeadNodes(t *testing.T) {
	net, _ := gridNet(t, 1, 3, 25, perfectRadio(), 1)
	net.MustNode(1).Fail()
	tree, err := net.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Hops[2] != -1 {
		t.Errorf("node 2 should be unreachable through dead node 1, hops=%d", tree.Hops[2])
	}
	if _, err := tree.PathToRoot(2); err == nil {
		t.Error("expected unreachable error")
	}
	net.MustNode(0).Fail()
	if _, err := net.BuildTree(0); err == nil {
		t.Error("expected error for dead root")
	}
}

func TestSendToRootMultiHop(t *testing.T) {
	net, sched := gridNet(t, 1, 5, 25, perfectRadio(), 1)
	tree, err := net.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	var got []Message
	net.MustNode(0).OnMessage = func(n *Node, msg Message) { got = append(got, msg) }
	if err := net.SendToRoot(tree, 4, "report", "data", ""); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if len(got) != 1 {
		t.Fatalf("root received %d messages", len(got))
	}
	if got[0].Src != 4 || got[0].From != 1 {
		t.Errorf("message = %+v, want Src=4 From=1", got[0])
	}
}

func TestSendToRootFromRoot(t *testing.T) {
	net, sched := gridNet(t, 1, 2, 25, perfectRadio(), 1)
	tree, _ := net.BuildTree(0)
	count := 0
	net.MustNode(0).OnMessage = func(n *Node, msg Message) { count++ }
	if err := net.SendToRoot(tree, 0, "self", nil, ""); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if count != 1 {
		t.Errorf("self-delivery count = %d", count)
	}
}

func TestSendMultiHop(t *testing.T) {
	net, sched := gridNet(t, 1, 6, 25, perfectRadio(), 1)
	var got []Message
	interior := 0
	for _, n := range net.Nodes() {
		n.OnMessage = func(nd *Node, msg Message) {
			if nd.ID == 5 {
				got = append(got, msg)
			} else {
				interior++
			}
		}
	}
	if err := net.SendMultiHop(0, 5, "report", 7, ""); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if len(got) != 1 {
		t.Fatalf("destination received %d messages", len(got))
	}
	if interior != 0 {
		t.Errorf("interior nodes delivered %d messages, want 0", interior)
	}
	if got[0].Src != 0 || got[0].From != 4 {
		t.Errorf("message = %+v", got[0])
	}
}

func TestSendMultiHopSelfAndErrors(t *testing.T) {
	net, sched := gridNet(t, 1, 3, 25, perfectRadio(), 1)
	count := 0
	net.MustNode(0).OnMessage = func(n *Node, msg Message) { count++ }
	if err := net.SendMultiHop(0, 0, "self", nil, ""); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if count != 1 {
		t.Errorf("self-delivery = %d", count)
	}
	if err := net.SendMultiHop(0, 99, "x", nil, ""); err == nil {
		t.Error("expected unknown-destination error")
	}
	net.MustNode(1).Fail()
	if err := net.SendMultiHop(0, 2, "x", nil, ""); err == nil {
		t.Error("expected no-path error through dead relay")
	}
}

// freshShortestPath is the reference multi-hop walk: a BFS over alive
// nodes on a freshly allocated parent array, neighbours in ID order.
func freshShortestPath(w *Network, a, b NodeID) []NodeID {
	parent := make([]NodeID, len(w.nodes))
	for i := range parent {
		parent[i] = -1
	}
	parent[a] = a
	for queue := []NodeID{a}; len(queue) > 0 && parent[b] == -1; queue = queue[1:] {
		for _, nb := range w.neighbors[queue[0]] {
			if parent[nb] == -1 && w.nodes[nb].Alive() {
				parent[nb] = queue[0]
				queue = append(queue, nb)
			}
		}
	}
	if parent[b] == -1 {
		return nil
	}
	var path []NodeID
	for v := b; ; v = parent[v] {
		path = append([]NodeID{v}, path...)
		if v == a {
			return path
		}
	}
}

// TestShortestPathReusesScratch: on a 100×100 field the multi-hop walk
// reuses the network's BFS scratch, so a warm call allocates only its
// path, under 1 KiB (a fresh parent array alone is 80 KB), and it returns
// the reference walk's path for every pair: routed around failed nodes,
// unreachable (a walled-in node, a dead endpoint) and trivial.
func TestShortestPathReusesScratch(t *testing.T) {
	const side = 100
	net, _ := gridNet(t, side, side, 25, DefaultRadioConfig(), 1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		net.MustNode(NodeID(rng.Intn(side * side))).Fail()
	}
	// Wall in node 5050: every neighbour dead.
	walled := NodeID(50*side + 50)
	net.MustNode(walled).Revive()
	for _, nb := range net.Neighbors(walled) {
		net.MustNode(nb).Fail()
	}
	dead := NodeID(-1)
	for id := NodeID(0); dead < 0; id++ {
		if !net.MustNode(id).Alive() {
			dead = id
		}
	}
	alive := func() NodeID {
		for {
			if id := NodeID(rng.Intn(side * side)); net.MustNode(id).Alive() && id != walled {
				return id
			}
		}
	}
	pairs := [][2]NodeID{{walled, 0}, {0, walled}, {dead, 9}, {9, dead}, {17, 17}}
	for i := 0; i < 300; i++ {
		pairs = append(pairs, [2]NodeID{alive(), alive()})
	}
	unreachable := 0
	for _, p := range pairs {
		got, want := net.shortestPath(p[0], p[1]), freshShortestPath(net, p[0], p[1])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d → %d: path %v, want %v", p[0], p[1], got, want)
		}
		if got == nil {
			unreachable++
		}
	}
	if unreachable < 3 {
		t.Fatalf("only %d unreachable pairs; the walled and dead cases went unexercised", unreachable)
	}
	for i, id := range net.pathParent {
		if id != -1 {
			t.Fatalf("node %d left marked after the walks", i)
		}
	}
	// Far corners: the longest walks the field has.
	a, b := NodeID(0), NodeID(side*side-1)
	net.MustNode(a).Revive()
	net.MustNode(b).Revive()
	net.shortestPath(a, b)
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&before)
		net.shortestPath(a, b)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<10 {
		t.Errorf("a warm corner-to-corner walk allocated %d B, want < 1 KiB", least)
	}
}

func TestClockModel(t *testing.T) {
	c := Clock{Offset: 0.01, DriftPPM: 10}
	local := c.Local(1000)
	want := 1000 + 0.01 + 10e-6*1000
	if math.Abs(local-want) > 1e-12 {
		t.Errorf("Local = %v, want %v", local, want)
	}
	back := c.True(local)
	// True inverts up to the offset-vs-drift interaction (exact for this
	// linear model within float precision at these magnitudes).
	if math.Abs(back-1000) > 1e-6 {
		t.Errorf("True(Local(1000)) = %v", back)
	}
	c.Adjust(-0.01)
	if c.Offset != 0 {
		t.Errorf("Adjust: offset = %v", c.Offset)
	}
}

func TestTimeSyncReducesResiduals(t *testing.T) {
	radio := DefaultRadioConfig()
	net, sched := gridNet(t, 4, 5, 25, radio, 11)
	tree, err := net.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	before := net.SyncRMS(0)
	if _, err := net.StartTimeSync(tree, 0.5); err != nil {
		t.Fatal(err)
	}
	sched.Run(20)
	after := net.SyncRMS(0)
	// Initial offsets are ±50 ms (RMS ~30 ms); post-sync residuals should
	// be millisecond-scale.
	if before < 0.005 {
		t.Fatalf("suspicious pre-sync RMS %v — initial offsets missing?", before)
	}
	if after > before/3 {
		t.Errorf("sync did not improve enough: before=%v after=%v", before, after)
	}
	if after > 0.02 {
		t.Errorf("post-sync RMS = %v s, want < 20 ms", after)
	}
}

// TestTimeSyncFramesBypassOnMessage: the network's dispatch hands the
// sync exchange to its own handlers, so a node's OnMessage sees every
// other frame and none of the sync wave's.
func TestTimeSyncFramesBypassOnMessage(t *testing.T) {
	net, sched := gridNet(t, 2, 3, 25, perfectRadio(), 1)
	tree, err := net.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for id := 0; id < net.NumNodes(); id++ {
		net.MustNode(NodeID(id)).OnMessage = func(n *Node, msg Message) { kinds = append(kinds, msg.Kind) }
	}
	before := net.SyncRMS(0)
	if _, err := net.StartTimeSync(tree, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := net.Unicast(0, 1, "app", nil); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if len(kinds) != 1 || kinds[0] != "app" {
		t.Errorf("OnMessage saw %q, want only the application frame", kinds)
	}
	if after := net.SyncRMS(0); after >= before {
		t.Errorf("sync RMS %v → %v: the wave did not run", before, after)
	}
}

func TestStartTimeSyncValidation(t *testing.T) {
	net, _ := gridNet(t, 1, 2, 25, perfectRadio(), 1)
	tree, _ := net.BuildTree(0)
	if _, err := net.StartTimeSync(tree, 0); err == nil {
		t.Error("expected error for zero levelGap")
	}
}

func TestSyncRMSUnknownRoot(t *testing.T) {
	net, _ := gridNet(t, 1, 2, 25, perfectRadio(), 1)
	if !math.IsNaN(net.SyncRMS(99)) {
		t.Error("expected NaN for unknown root")
	}
}

func TestBatteryLifecycle(t *testing.T) {
	b, err := NewBattery(0.01) // tiny battery: 10 mJ
	if err != nil {
		t.Fatal(err)
	}
	if b.Capacity() != 0.01 || b.Remaining() != 0.01 {
		t.Errorf("capacity/remaining = %v/%v", b.Capacity(), b.Remaining())
	}
	b.Consume(CostTx)
	if math.Abs(b.Used(CostTx)-txJ) > 1e-15 {
		t.Errorf("Used(tx) = %v", b.Used(CostTx))
	}
	for i := 0; i < 20; i++ {
		b.Consume(CostTx)
	}
	if !b.Empty() {
		t.Errorf("battery should be empty, remaining %v", b.Remaining())
	}
	if b.FractionRemaining() != 0 {
		t.Errorf("fraction = %v", b.FractionRemaining())
	}
	if _, err := NewBattery(0); err == nil {
		t.Error("expected error for zero capacity")
	}
}

// TestBatteryCosts pins the per-operation charges of an iMote2-class node.
func TestBatteryCosts(t *testing.T) {
	costs := map[CostKind]float64{
		CostTx:     1e-3, // 1 mJ per frame sent
		CostRx:     8e-4, // 0.8 mJ per frame received
		CostSample: 2e-5, // 20 µJ per accelerometer sample
		CostCPU:    1e-4, // 0.1 mJ per detection window
	}
	for kind, want := range costs {
		b, err := NewBattery(1)
		if err != nil {
			t.Fatal(err)
		}
		b.Consume(kind)
		if got := b.Used(kind); got != want {
			t.Errorf("%v costs %g J, want %g J", kind, got, want)
		}
	}
	b, err := NewBattery(1)
	if err != nil {
		t.Fatal(err)
	}
	b.AccrueIdle(1)
	if got := b.Used(CostIdle); got != 2e-3 {
		t.Errorf("idle draws %g W, want 2 mW", got)
	}
}

func TestBatteryIdleAndBounds(t *testing.T) {
	b, _ := NewBattery(1)
	b.AccrueIdle(100) // 100 s × 2 mW = 0.2 J
	if math.Abs(b.Remaining()-0.8) > 1e-12 {
		t.Errorf("remaining = %v", b.Remaining())
	}
	b.AccrueIdle(-5) // no-op
	if math.Abs(b.Remaining()-0.8) > 1e-12 {
		t.Error("negative idle changed battery")
	}
	if b.Used(CostKind(99)) != 0 {
		t.Error("unknown kind should report 0")
	}
	b.Consume(CostKind(99)) // no-op
	if math.Abs(b.Remaining()-0.8) > 1e-12 {
		t.Error("unknown kind consumed energy")
	}
}

func TestDeadBatteryKillsNode(t *testing.T) {
	net, sched := gridNet(t, 1, 2, 25, perfectRadio(), 1)
	b, _ := NewBattery(1e-9)
	node := net.MustNode(0)
	node.Battery = b
	b.Consume(CostTx) // drains it
	if node.Alive() {
		t.Error("node with empty battery should be dead")
	}
	if err := net.Unicast(0, 1, "x", nil); err == nil {
		t.Error("expected send failure from a dead-battery node")
	}
	sched.RunAll()
	if net.Stats().Delivered != 0 {
		t.Error("dead-battery node transmitted")
	}
}

func TestEnergyAccountingOnTraffic(t *testing.T) {
	net, sched := gridNet(t, 1, 2, 25, perfectRadio(), 1)
	b0, _ := NewBattery(10)
	b1, _ := NewBattery(10)
	net.MustNode(0).Battery = b0
	net.MustNode(1).Battery = b1
	for i := 0; i < 5; i++ {
		if err := net.Unicast(0, 1, "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunAll()
	if math.Abs(b0.Used(CostTx)-5*txJ) > 1e-12 {
		t.Errorf("tx energy = %v", b0.Used(CostTx))
	}
	if math.Abs(b1.Used(CostRx)-5*rxJ) > 1e-12 {
		t.Errorf("rx energy = %v", b1.Used(CostRx))
	}
}

func TestCostKindString(t *testing.T) {
	names := map[CostKind]string{
		CostTx: "tx", CostRx: "rx", CostSample: "sample", CostCPU: "cpu",
		CostIdle: "idle", CostKind(42): "CostKind(42)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q", int(k), got)
		}
	}
}
