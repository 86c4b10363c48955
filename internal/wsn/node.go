// Package wsn is the wireless-sensor-network substrate SID runs on: nodes
// with positions, imperfect clocks and finite batteries, a lossy
// finite-range radio with MAC jitter, hop-limited flooding (used to set up
// the paper's temporary clusters "within six hops"), BFS tree routing to a
// sink, and a two-way message-exchange time-synchronization protocol — the
// middleware services §IV-A says a deployment must provide (localization,
// time synchronization, routing infrastructure).
//
// Everything runs on the deterministic discrete-event engine in
// internal/sim so whole-network scenarios are reproducible from one seed.
package wsn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sim"
)

// NodeID identifies a node within its network. The sink is a normal node
// designated at network construction.
type NodeID int

// Broadcast is the wildcard destination.
const Broadcast NodeID = -1

// Message is a radio frame. Payload contents are application-defined.
type Message struct {
	// Seq is a network-unique identifier assigned at origination; flooding
	// uses it for duplicate suppression.
	Seq uint64
	// Kind tags the payload for dispatch.
	Kind string
	// Src is the originating node; From is the immediate transmitter.
	Src, From NodeID
	// To is the final destination, or Broadcast.
	To NodeID
	// TTL is the remaining hop budget for flooded messages.
	TTL int
	// ARQ is the per-hop transmission ID used by the reliable transport to
	// match ACKs to data frames and suppress retransmitted duplicates; 0
	// for fire-and-forget frames.
	ARQ uint64
	// Trace is the cluster key (obs.ClusterKey) the runtime stamps on
	// report and confirmation sends while instrumentation is on; the
	// reliable transport copies it into its retransmission and drop
	// events so they name the detection they delay. Empty otherwise.
	Trace string
	// Payload carries application data.
	Payload interface{}
}

// Handler consumes a delivered message on a node.
type Handler func(n *Node, msg Message)

// Node is one sensor buoy's networking identity.
type Node struct {
	ID  NodeID
	Pos geo.Vec2
	// Clock is the node's imperfect local clock.
	Clock Clock
	// Battery is nil for mains-powered nodes (e.g. the sink).
	Battery *Battery
	// OnMessage receives application messages (every frame but the
	// network's own time-sync exchange).
	OnMessage Handler

	net     *Network
	alive   bool
	epoch   int // incarnation counter; bumped by Fail
	seen    map[uint64]struct{}
	seenARQ map[uint64]struct{}
}

// Alive reports whether the node is powered and functioning.
func (n *Node) Alive() bool { return n.alive && (n.Battery == nil || !n.Battery.Empty()) }

// Fail kills the node (hardware fault injection). Failure is an
// incarnation boundary: frames already in flight toward the node are lost
// even if it is revived before they would arrive (the radio was down), and
// timers armed against the previous incarnation must check Alive/epoch and
// no-op. Transmissions started after a Revive reach the new incarnation
// normally.
func (n *Node) Fail() {
	n.alive = false
	n.epoch++
}

// Revive restores a failed node as a fresh incarnation: alive again with
// the same clock, battery (an empty battery still keeps it dead), position
// and message handler. Duplicate-suppression history (flood and ARQ seen
// sets) survives the reboot, so retransmissions of frames it already
// consumed are still suppressed.
func (n *Node) Revive() { n.alive = true }

// LocalTime converts true simulation time to this node's clock reading.
func (n *Node) LocalTime(trueTime float64) float64 { return n.Clock.Local(trueTime) }

// Now returns the node's current local clock reading.
func (n *Node) Now() float64 { return n.Clock.Local(n.net.Sched.Now()) }

// RadioConfig models the 802.15.4-class radio.
type RadioConfig struct {
	// Range is the maximum link distance in meters.
	Range float64
	// LossProb is the per-transmission frame loss probability in [0, 1).
	LossProb float64
	// BaseDelay is the fixed propagation+processing latency in seconds.
	BaseDelay float64
	// JitterStd is the standard deviation of MAC backoff jitter (seconds).
	JitterStd float64
	// Retries is the number of link-layer retransmissions for unicast
	// frames (flooded frames are fire-and-forget). These are blind
	// same-instant retries with no acknowledgment — the fire-and-forget
	// baseline; see Reliable for the acknowledged transport.
	Retries int
	// Reliable configures the per-hop ACK/retransmission transport. The
	// zero value disables it, keeping the fire-and-forget semantics (and
	// bit-identical runs) of earlier versions.
	Reliable ReliableConfig
}

// DefaultRadioConfig returns parameters typical of an iMote2-class radio in
// a 25 m grid: 60 m range, 5% frame loss, ~5 ms latency with 2 ms jitter.
func DefaultRadioConfig() RadioConfig {
	return RadioConfig{Range: 60, LossProb: 0.05, BaseDelay: 0.005, JitterStd: 0.002, Retries: 2}
}

// Validate checks the radio configuration. NewNetwork validates on
// construction regardless; this export lets configuration surfaces (the
// deployment validator, the serving layer's tenant specs) reject a bad
// radio before building anything.
func (c RadioConfig) Validate() error { return c.validate() }

func (c RadioConfig) validate() error {
	if c.Range <= 0 {
		return fmt.Errorf("wsn: radio range must be positive, got %g", c.Range)
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("wsn: loss probability must be in [0,1), got %g", c.LossProb)
	}
	if c.BaseDelay < 0 || c.JitterStd < 0 {
		return fmt.Errorf("wsn: delays must be non-negative: %+v", c)
	}
	if c.Retries < 0 {
		return fmt.Errorf("wsn: retries must be non-negative, got %d", c.Retries)
	}
	return c.Reliable.validate()
}

// Network is a deployed WSN: nodes, connectivity, radio model and stats.
type Network struct {
	Sched *sim.Scheduler
	Radio RadioConfig

	nodes     []*Node
	neighbors [][]NodeID
	seq       uint64
	rng       *rand.Rand

	// lossModel, when set, replaces the Bernoulli LossProb draw (fault
	// injection plugs burst-loss channels in here). It is queried once per
	// frame with the current simulation time.
	lossModel func(now float64) bool

	// arqSeq numbers per-hop reliable transmissions; arqRNG drives the
	// deterministic backoff jitter (its own stream, so enabling the
	// reliable path never perturbs the radio loss sequence).
	arqSeq  uint64
	arqRNG  *rand.Rand
	pending map[uint64]struct{}

	// col is the observability collector; ctr caches the registry counter
	// handles behind Stats() so increments stay lock-free.
	col *obs.Collector
	ctr netCounters

	// pathParent and pathQueue are shortestPath's BFS scratch: predecessor
	// marks (-1 unvisited, allocated on the first multi-hop send) and the
	// visiting queue. Only scheduler events send, so one set serves every
	// walk, and each walk unmarks the nodes it visited.
	pathParent []NodeID
	pathQueue  []NodeID
}

// Stats is a snapshot of the network-level counters (the registry under
// "wsn.*" metric names; read it via Network.Stats).
type Stats struct {
	// Sent counts every frame handed to the radio: originals, blind
	// link-layer retries, multi-hop forwards, flood rebroadcasts, ARQ
	// retransmissions, and ACK frames.
	Sent int
	// Delivered counts frames consumed by a protocol or application
	// handler (local sink deliveries included; duplicates excluded).
	Delivered int
	// Lost counts frames dropped by the loss process (Bernoulli or a
	// pluggable channel model), before any propagation delay.
	Lost int
	// Duplicate counts flooded frames suppressed by a receiver that had
	// already consumed the same flood sequence number.
	Duplicate int

	// Acks counts ACK frames transmitted by the reliable per-hop
	// transport (zero unless Radio.Reliable is enabled; ACKs also appear
	// in Sent and, when lost, in Lost).
	Acks int
	// Retransmissions counts timeout-driven data-frame retransmissions of
	// the reliable transport (blind Radio.Retries are not included — they
	// are same-instant repeats inside one Sent attempt sequence).
	Retransmissions int
	// ReliableDelivered counts reliable hops whose data frame reached its
	// receiver's handler exactly once (retransmitted duplicates are
	// suppressed and not re-counted).
	ReliableDelivered int
	// ReliableDropped counts reliable hops abandoned with the receiver
	// never having consumed the frame — retransmissions exhausted or the
	// sender died mid-exchange. Hops where only ACKs were lost do not
	// count: the payload arrived.
	ReliableDropped int
}

// netCounters caches the registry handles for the Stats fields.
type netCounters struct {
	sent, delivered, lost, duplicate        *obs.Counter
	acks, retrans, relDelivered, relDropped *obs.Counter
}

// bindCounters (re-)resolves the counter handles from the collector's
// registry.
func (w *Network) bindCounters() {
	reg := w.col.Registry()
	w.ctr = netCounters{
		sent:         reg.Counter("wsn.sent"),
		delivered:    reg.Counter("wsn.delivered"),
		lost:         reg.Counter("wsn.lost"),
		duplicate:    reg.Counter("wsn.duplicate"),
		acks:         reg.Counter("wsn.acks"),
		retrans:      reg.Counter("wsn.retransmissions"),
		relDelivered: reg.Counter("wsn.reliable_delivered"),
		relDropped:   reg.Counter("wsn.reliable_dropped"),
	}
}

// SetCollector rebinds the network's metrics onto col's registry and
// routes journal events to col. Call it before any traffic flows (counts
// accumulated under the previous registry are not migrated); the sid
// runtime does this at construction so deployment and network metrics
// share one registry.
func (w *Network) SetCollector(col *obs.Collector) {
	if col == nil {
		return
	}
	w.col = col
	w.bindCounters()
}

// Stats snapshots the network-level counters.
func (w *Network) Stats() Stats {
	return Stats{
		Sent:              int(w.ctr.sent.Value()),
		Delivered:         int(w.ctr.delivered.Value()),
		Lost:              int(w.ctr.lost.Value()),
		Duplicate:         int(w.ctr.duplicate.Value()),
		Acks:              int(w.ctr.acks.Value()),
		Retransmissions:   int(w.ctr.retrans.Value()),
		ReliableDelivered: int(w.ctr.relDelivered.Value()),
		ReliableDropped:   int(w.ctr.relDropped.Value()),
	}
}

// SetLossModel replaces the radio's Bernoulli frame-loss draw with a custom
// channel model (e.g. a Gilbert–Elliott burst channel from internal/fault).
// The function is called once per transmitted frame with the current
// simulation time and returns true when the frame is lost. Passing nil
// restores the Bernoulli model.
func (w *Network) SetLossModel(m func(now float64) bool) { w.lossModel = m }

// NewNetwork deploys nodes at the given positions. Node i gets ID i.
// Clock imperfections are drawn from the scheduler's "clock" stream:
// offsets uniform in ±maxOffset, drifts uniform in ±maxDriftPPM.
func NewNetwork(sched *sim.Scheduler, positions []geo.Vec2, radio RadioConfig) (*Network, error) {
	if sched == nil {
		return nil, fmt.Errorf("wsn: scheduler is required")
	}
	if len(positions) == 0 {
		return nil, fmt.Errorf("wsn: at least one node position is required")
	}
	if err := radio.validate(); err != nil {
		return nil, err
	}
	for i, p := range positions {
		if math.IsNaN(p.X+p.Y) || math.IsInf(p.X+p.Y, 0) {
			return nil, fmt.Errorf("wsn: node %d position %v is not finite", i, p)
		}
	}
	net := &Network{
		Sched:   sched,
		Radio:   radio,
		rng:     sched.RNG("wsn.radio"),
		arqRNG:  sched.RNG("wsn.arq"),
		pending: make(map[uint64]struct{}),
		col:     obs.New(),
	}
	net.bindCounters()
	clockRNG := sched.RNG("wsn.clock")
	const maxOffset = 0.05   // ±50 ms initial offset
	const maxDriftPPM = 20.0 // ±20 ppm drift
	for i, p := range positions {
		n := &Node{
			ID:  NodeID(i),
			Pos: p,
			Clock: Clock{
				Offset:   (clockRNG.Float64()*2 - 1) * maxOffset,
				DriftPPM: (clockRNG.Float64()*2 - 1) * maxDriftPPM,
			},
			net:     net,
			alive:   true,
			seen:    make(map[uint64]struct{}),
			seenARQ: make(map[uint64]struct{}),
		}
		net.nodes = append(net.nodes, n)
	}
	net.rebuildNeighbors()
	return net, nil
}

// rebuildNeighbors lists, for every node, the nodes within radio range in
// ascending ID order. Candidates come from a geo.Index whose cells are one
// radio range wide (wider for layouts sparser than one node per cell), so
// each node tests the few cells around it instead of every other node:
// linear in the node count for any bounded density.
func (w *Network) rebuildNeighbors() {
	pts := make([]geo.Vec2, len(w.nodes))
	for i, n := range w.nodes {
		pts[i] = n.Pos
	}
	ix := geo.NewIndex(pts, w.Radio.Range)
	// The query box is padded by a sliver of the range so rounding in
	// Pos ± Range never drops a pair at exactly Range; Dist decides.
	reach := w.Radio.Range * (1 + 1e-3)
	box := geo.Vec2{X: reach, Y: reach}
	w.neighbors = make([][]NodeID, len(w.nodes))
	var cand []int
	for i, a := range w.nodes {
		cand = ix.QueryBox(a.Pos.Sub(box), a.Pos.Add(box), cand[:0])
		for _, j := range cand {
			if j != i && a.Pos.Dist(w.nodes[j].Pos) <= w.Radio.Range {
				w.neighbors[i] = append(w.neighbors[i], NodeID(j))
			}
		}
	}
}

// NumNodes returns the node count.
func (w *Network) NumNodes() int { return len(w.nodes) }

// Node returns the node with the given ID.
func (w *Network) Node(id NodeID) (*Node, error) {
	if int(id) < 0 || int(id) >= len(w.nodes) {
		return nil, fmt.Errorf("wsn: no node %d", id)
	}
	return w.nodes[id], nil
}

// MustNode is Node for known-valid IDs (panics otherwise); used internally
// and in tests.
func (w *Network) MustNode(id NodeID) *Node {
	n, err := w.Node(id)
	if err != nil {
		panic(err)
	}
	return n
}

// Nodes returns all nodes in ID order. The slice is shared; do not modify.
func (w *Network) Nodes() []*Node { return w.nodes }

// Neighbors returns the IDs within radio range of id.
func (w *Network) Neighbors(id NodeID) []NodeID {
	if int(id) < 0 || int(id) >= len(w.neighbors) {
		return nil
	}
	return w.neighbors[id]
}

// NextSeq assigns a network-unique message sequence number.
func (w *Network) NextSeq() uint64 {
	w.seq++
	return w.seq
}

// lossy draws the frame-loss decision: the pluggable loss model when set,
// otherwise Bernoulli(LossProb) from the radio stream.
func (w *Network) lossy() bool {
	if w.lossModel != nil {
		return w.lossModel(w.Sched.Now())
	}
	return w.rng.Float64() < w.Radio.LossProb
}

// frameDelay draws one frame's propagation + MAC-jitter latency.
func (w *Network) frameDelay() float64 {
	delay := w.Radio.BaseDelay
	if w.Radio.JitterStd > 0 {
		j := w.rng.NormFloat64() * w.Radio.JitterStd
		if j < 0 {
			j = -j
		}
		delay += j
	}
	return delay
}

// hop moves one frame over the from -> to link. It is the link model every
// send path shares: count the frame, charge the sender's transmit energy,
// draw loss and then delay from the radio stream, and schedule arrive on the
// receiver after charging its receive energy. The receiver's incarnation is
// captured at send time: a frame in flight when the receiver fails is lost
// even if the node revives before it would have arrived. Callers apply their
// own rule for a dead sender. Returns false if the frame was lost.
func (w *Network) hop(from, to *Node, msg Message, arrive func(*Node, Message)) bool {
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
	// After fails only for a negative delay, and frame delays never are.
	_ = w.Sched.After(w.frameDelay(), func() {
		if !to.Alive() || to.epoch != toEpoch {
			return
		}
		if to.Battery != nil {
			to.Battery.Consume(CostRx)
		}
		arrive(to, msg)
	})
	return true
}

// send moves msg over one link under the radio's delivery discipline: the
// acknowledged transport when Radio.Reliable is enabled, otherwise up to
// Retries+1 blind same-instant attempts while the sender is alive. It
// reports whether a frame got through; the acknowledged transport always
// says yes, since its losses surface in Stats.ReliableDropped.
func (w *Network) send(from, to *Node, msg Message, arrive func(*Node, Message)) bool {
	if w.Radio.Reliable.Enabled {
		w.sendReliable(from, to, msg, arrive)
		return true
	}
	for attempt := 0; attempt <= w.Radio.Retries && from.Alive(); attempt++ {
		if w.hop(from, to, msg, arrive) {
			return true
		}
	}
	return false
}

func (w *Network) deliver(n *Node, msg Message) {
	w.ctr.delivered.Inc()
	switch {
	case msg.Kind == kindSyncReq:
		w.onSyncReq(n, msg)
	case msg.Kind == kindSyncResp:
		w.onSyncResp(n, msg)
	case n.OnMessage != nil:
		n.OnMessage(n, msg)
	}
}

// Unicast sends msg from -> to over a direct link. With the fire-and-forget
// radio it makes Retries+1 blind same-instant attempts and reports loss of
// all of them as an error; with Radio.Reliable enabled it hands the frame
// to the acknowledged transport (asynchronous — persistent loss then shows
// up in Stats.ReliableDropped, not in the return value). It fails
// immediately if the nodes are not in range.
func (w *Network) Unicast(from, to NodeID, kind string, payload interface{}) error {
	src, err := w.Node(from)
	if err != nil {
		return err
	}
	dst, err := w.Node(to)
	if err != nil {
		return err
	}
	if src.Pos.Dist(dst.Pos) > w.Radio.Range {
		return fmt.Errorf("wsn: %d -> %d out of radio range", from, to)
	}
	msg := Message{
		Seq:     w.NextSeq(),
		Kind:    kind,
		Src:     from,
		To:      to,
		Payload: payload,
	}
	if !w.send(src, dst, msg, w.deliver) {
		return fmt.Errorf("wsn: %d -> %d lost after %d attempts", from, to, w.Radio.Retries+1)
	}
	return nil
}

// Flood originates a hop-limited broadcast: every node within ttl hops that
// receives it (subject to loss) gets one delivery. The paper's temporary
// cluster setup "informs its neighbor nodes within N hops" this way (the
// SID algorithm uses six hops).
func (w *Network) Flood(from NodeID, ttl int, kind string, payload interface{}) error {
	src, err := w.Node(from)
	if err != nil {
		return err
	}
	if ttl <= 0 {
		return fmt.Errorf("wsn: flood TTL must be positive, got %d", ttl)
	}
	msg := Message{
		Seq:     w.NextSeq(),
		Kind:    kind,
		Src:     from,
		To:      Broadcast,
		TTL:     ttl,
		Payload: payload,
	}
	src.seen[msg.Seq] = struct{}{}
	w.forwardFlood(src, msg)
	return nil
}

func (w *Network) forwardFlood(n *Node, msg Message) {
	for _, nb := range w.neighbors[n.ID] {
		if n.Alive() {
			w.hop(n, w.nodes[nb], msg, w.floodArrive)
		}
	}
}

// floodArrive consumes a flooded frame: a repeat of a sequence number the
// node already consumed is counted and dropped; a first copy is delivered
// and rebroadcast while hop budget remains.
func (w *Network) floodArrive(to *Node, msg Message) {
	if _, dup := to.seen[msg.Seq]; dup {
		w.ctr.duplicate.Inc()
		return
	}
	to.seen[msg.Seq] = struct{}{}
	w.deliver(to, msg)
	if msg.TTL > 1 {
		msg.TTL--
		w.forwardFlood(to, msg)
	}
}
